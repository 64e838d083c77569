(** Open-addressed hash set of int pairs.

    The failure-memo set of the {!Lincheck} DFS and the reachable set of
    {!Increment}: a probe must not allocate, so keys are two machine ints
    (the packed DFS state — see [Lincheck.prep]'s value interning) stored
    inline in two parallel arrays with linear probing and a power-of-two
    capacity.  [mem], and [add] while the set does not grow, allocate
    nothing.

    Both components may be any int with [k1 >= 0] ([k1] is offset by one
    internally so 0 can mark an empty slot). *)

type t

type stats = {
  size : int;  (** distinct pairs stored *)
  capacity : int;  (** current slot count *)
  occupancy : float;  (** [size /. capacity], in [0, 0.5] by the growth rule *)
  grows : int;  (** table rehashes since [create] *)
}

val create : ?capacity:int -> unit -> t
(** [capacity] (default 256) is rounded up to a power of two [>= 8]. *)

val mem : t -> k1:int -> k2:int -> bool
(** @raise Invalid_argument if [k1 < 0]. *)

val add : t -> k1:int -> k2:int -> unit
(** Idempotent. @raise Invalid_argument if [k1 < 0]. *)

val clear : t -> unit
(** Remove every pair and keep the capacity, so the set can be reused
    without allocating; [grows] is unchanged. *)

val length : t -> int
(** Number of distinct pairs added. *)

val capacity : t -> int
val occupancy : t -> float
val stats : t -> stats
