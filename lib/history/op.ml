type kind = Read | Write of Value.t [@@deriving eq, ord]

type t = {
  id : int;
  proc : int;
  obj : string;
  kind : kind;
  invoked : int;
  responded : int option;
  result : Value.t option;
}

let make ~id ~proc ~obj ~kind ~invoked ?responded ?result () =
  (match responded with
  | Some r when r < invoked ->
      invalid_arg "Op.make: response before invocation"
  | _ -> ());
  { id; proc; obj; kind; invoked; responded; result }

let is_complete o = Option.is_some o.responded
let is_pending o = Option.is_none o.responded
let is_write o = match o.kind with Write _ -> true | Read -> false
let is_read o = not (is_write o)

let write_value o =
  match o.kind with
  | Write v -> v
  | Read -> invalid_arg "Op.write_value: operation is a read"

let precedes o o' =
  match o.responded with None -> false | Some r -> r < o'.invoked

let concurrent o o' = (not (precedes o o')) && not (precedes o' o)

let active_at o t =
  o.invoked <= t
  && match o.responded with None -> true | Some r -> t <= r

let equal a b = a.id = b.id

let pp_kind fmt = function
  | Read -> Format.pp_print_string fmt "read"
  | Write v -> Format.fprintf fmt "write(%a)" Value.pp v

let pp fmt o =
  Format.fprintf fmt "@[<h>#%d p%d %s.%a [%d,%s]%a@]" o.id o.proc o.obj
    pp_kind o.kind o.invoked
    (match o.responded with Some r -> string_of_int r | None -> "?")
    (fun fmt -> function
      | Some v -> Format.fprintf fmt "->%a" Value.pp v
      | None -> ())
    o.result
