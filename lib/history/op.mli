(** Register operations: an invocation/response interval plus its payload.

    An operation [o] {e precedes} [o'] (Definition 1 of the paper) when the
    response of [o] occurs before the invocation of [o']; two operations
    neither of which precedes the other are {e concurrent}. *)

type kind = Read | Write of Value.t [@@deriving eq, ord]

type t = {
  id : int;  (** unique per history *)
  proc : int;  (** invoking process id (1-based) *)
  obj : string;  (** register name, e.g. ["R1"] *)
  kind : kind;
  invoked : int;  (** invocation time (scheduler step) *)
  responded : int option;  (** response time; [None] while pending *)
  result : Value.t option;
      (** for a complete read, the value returned; [None] otherwise *)
}

val make :
  id:int ->
  proc:int ->
  obj:string ->
  kind:kind ->
  invoked:int ->
  ?responded:int ->
  ?result:Value.t ->
  unit ->
  t

val is_complete : t -> bool
val is_pending : t -> bool
val is_write : t -> bool
val is_read : t -> bool

val write_value : t -> Value.t
(** @raise Invalid_argument if applied to a read. *)

val precedes : t -> t -> bool
(** [precedes o o'] iff [o]'s response occurs before [o']'s invocation
    (Definition 1).  A pending operation precedes nothing. *)

val concurrent : t -> t -> bool
(** Neither precedes the other. *)

val active_at : t -> int -> bool
(** [active_at o t]: the operation has started by time [t] and has not
    responded before [t] (Definition 21 of the paper: an operation that
    starts at [s] and completes at [f] is active at [t] if [s <= t <= f];
    a pending operation is active at every [t >= s]). *)

val equal : t -> t -> bool
(** Equality on [id]. *)

val pp : Format.formatter -> t -> unit
val pp_kind : Format.formatter -> kind -> unit
