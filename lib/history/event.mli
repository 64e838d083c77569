(** Invocation/response events.  A history (in the sense of Herlihy–Wing) is
    a finite sequence of these, each tagged with the scheduler step at which
    it occurred. *)

type t =
  | Invoke of { op_id : int; proc : int; obj : string; kind : Op.kind }
  | Respond of { op_id : int; result : Value.t option }
[@@deriving eq]

type timed = { time : int; event : t } [@@deriving eq]

val op_id : t -> int
val pp : Format.formatter -> t -> unit
val pp_timed : Format.formatter -> timed -> unit
