(** Vector timestamps with possibly-unset (infinite) components, as used by
    Algorithm 2 of the paper (the write strongly-linearizable MWMR register
    construction from SWMR registers).

    A write operation builds its timestamp incrementally, one component at a
    time, starting from [[∞, …, ∞]].  Because components only ever decrease
    (from [∞] to a finite value), the vector as a whole is non-increasing in
    lexicographic order while it is being formed — this is the key property
    (Observation 25 of the paper) that lets Algorithm 3 linearize write
    operations on-line from their possibly-incomplete timestamps. *)

type entry = Fin of int | Inf
(** One component: either a finite count or [∞] (not yet determined). *)

type t
(** A vector timestamp of fixed dimension [n] (one entry per process). *)

val dim : t -> int

val all_inf : int -> t
(** [all_inf n] is [[∞, …, ∞]] of dimension [n]: the initial value of the
    local [new_ts] variable (and its value after the reset on line 9 of
    Algorithm 2). @raise Invalid_argument if [n < 1]. *)

val zero : int -> t
(** [zero n] is [[0, …, 0]]: the timestamp of the register's initial value. *)

val of_list : entry list -> t
(** @raise Invalid_argument on an empty list or a negative finite entry. *)

val of_ints : int list -> t
(** All-finite vector from a list of ints. *)

val get : t -> int -> entry
(** [get v i] is component [i] (1-based, matching the paper's indexing).
    @raise Invalid_argument if [i] is out of range. *)

val set : t -> int -> int -> t
(** [set v i x] is [v] with component [i] (1-based) set to [Fin x].
    Functional update; the original is unchanged.
    @raise Invalid_argument if out of range, [x < 0], or if the update would
    *increase* the component (components may only go from [Inf] to finite —
    a violation indicates a bug in the caller). *)

val compare : t -> t -> int
(** Lexicographic comparison, component 1 first.
    @raise Invalid_argument on dimension mismatch. *)

val equal : t -> t -> bool
val lt : t -> t -> bool
val le : t -> t -> bool

val max_list : t list -> t
(** Lexicographic maximum. @raise Invalid_argument on the empty list. *)

val is_complete : t -> bool
(** True iff no component is [∞]. *)

val is_zero : t -> bool
(** True iff equal to [zero (dim v)]. *)

val componentwise_le : t -> t -> bool
(** [componentwise_le a b] iff every component of [a] is [<=] the matching
    component of [b] (with [Inf] as top).  Used in tests of the paper's
    Lemma 37 / Claim 38.1 style arguments. *)

val to_list : t -> entry list
val pp : Format.formatter -> t -> unit
val to_string : t -> string
