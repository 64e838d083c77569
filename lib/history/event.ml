type t =
  | Invoke of { op_id : int; proc : int; obj : string; kind : Op.kind }
  | Respond of { op_id : int; result : Value.t option }
[@@deriving eq]

type timed = { time : int; event : t } [@@deriving eq]

let op_id = function Invoke { op_id; _ } -> op_id | Respond { op_id; _ } -> op_id

let pp fmt = function
  | Invoke { op_id; proc; obj; kind } ->
      Format.fprintf fmt "inv(#%d p%d %s.%a)" op_id proc obj Op.pp_kind kind
  | Respond { op_id; result } ->
      Format.fprintf fmt "res(#%d%a)" op_id
        (fun fmt -> function
          | Some v -> Format.fprintf fmt "->%a" Value.pp v
          | None -> ())
        result

let pp_timed fmt { time; event } = Format.fprintf fmt "%d:%a" time pp event
