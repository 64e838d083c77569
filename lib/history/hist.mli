(** Histories: well-formed sequences of timed invocation/response events,
    and the derived view as a set of operations.

    Well-formedness:
    - event times are strictly increasing;
    - every response matches an earlier invocation with the same op id;
    - op ids are unique;
    - each process has at most one operation pending at any moment
      (processes are sequential). *)

type t

val empty : t

val of_events : Event.timed list -> (t, string) result
(** Validates well-formedness; returns [Error msg] otherwise. *)

val of_events_exn : Event.timed list -> t
(** @raise Invalid_argument on a malformed event list. *)

val of_ops : Op.t list -> t
(** Build a history from operation records (useful for hand-crafted
    histories such as the paper's Figure 4).  Events are synthesized from
    the operations' [invoked]/[responded] times.
    @raise Invalid_argument if two events collide on the same time. *)

val events : t -> Event.timed list
(** In increasing time order. *)

val ops : t -> Op.t list
(** All operations, in invocation order.  Pending operations have
    [responded = None]. *)

val complete_ops : t -> Op.t list
val pending_ops : t -> Op.t list
val objects : t -> string list
(** Distinct object names, in first-appearance order. *)

val project : t -> obj:string -> t
(** Sub-history of events on one object. *)

val restrict_procs : t -> procs:int list -> t
(** Sub-history of events by the given processes. *)

val length : t -> int
(** Number of events. *)

val prefix : t -> int -> t
(** [prefix h k] is the history of the first [k] events. *)

val prefix_upto_time : t -> int -> t
(** [prefix_upto_time h t] is the prefix of [h] holding its events at
    times [<= t]. *)

val prefixes : t -> t list
(** All event-boundary prefixes, shortest first, including [empty] and the
    full history.  These are the [G] ⊑ [H] pairs quantified over by
    Definitions 3 and 4 along a single execution. *)

val is_prefix : t -> of_:t -> bool

val append : t -> Event.timed -> t
(** @raise Invalid_argument if the result would be malformed. *)

val concurrent_pairs : t -> (Op.t * Op.t) list
(** All unordered pairs of concurrent operations. *)

val max_time : t -> int
(** Time of the last event; [-1] for the empty history. *)

val writes : t -> Op.t list
(** Write operations in invocation order. *)

val reads : t -> Op.t list

val pp : Format.formatter -> t -> unit
(** One event per line. *)

(** {2 Sequential histories and the register sequential specification} *)

module Seq : sig
  type seq = Op.t list
  (** A sequential history: a list of operations, each considered to take
      effect in list order. *)

  val legal_register : init:Value.t -> seq -> bool
  (** Property 3 of Definition 2: every read returns the value of the last
      write before it in the sequence, or [init] if there is none.
      All operations must be on the same object. *)

  val first_illegal_read : init:Value.t -> seq -> Op.t option
  (** Diagnostic variant: the first read violating the register spec. *)

  val respects_precedence : t -> seq -> bool
  (** Property 2 of Definition 2: if [o] precedes [o'] in the (concurrent)
      history, then [o] occurs before [o'] in the sequence. *)

  val covers_complete : t -> seq -> bool
  (** Property 1 of Definition 2: the sequence contains every complete
      operation of the history (it may also contain pending ones). *)

  val is_linearization_of : init:Value.t -> t -> seq -> bool
  (** Conjunction of the three properties of Definition 2, i.e. the
      sequence witnesses linearizability of the (single-object) history. *)

  val write_subsequence : seq -> Op.t list
  (** The subsequence of write operations — the object of property (P) in
      Definition 4 (write strong-linearizability). *)

  val is_op_prefix : Op.t list -> of_:Op.t list -> bool
  (** Prefix test on operation sequences, comparing by op id. *)
end
