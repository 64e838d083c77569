(** Open-addressed hash set of int pairs.

    The failure-memo set of the {!Lincheck} DFS: a memo probe must not
    allocate, so keys are two machine ints (the packed DFS state — see
    [Lincheck.prep]'s value interning) stored inline in two parallel
    arrays with linear probing and a power-of-two capacity.

    Both components may be any int with [k1 >= 0] ([k1] is offset by one
    internally so 0 can mark an empty slot). *)

type t

type stats = {
  size : int;  (** distinct pairs stored *)
  capacity : int;  (** current slot count (sum over shards if sharded) *)
  occupancy : float;  (** [size /. capacity], in [0, 0.5] by the growth rule *)
  grows : int;  (** table rehashes since [create] (sum over shards) *)
}

val create : ?capacity:int -> unit -> t
(** [capacity] (default 256) is rounded up to a power of two [>= 8]. *)

val mem : t -> k1:int -> k2:int -> bool
(** @raise Invalid_argument if [k1 < 0]. *)

val add : t -> k1:int -> k2:int -> unit
(** Idempotent. @raise Invalid_argument if [k1 < 0]. *)

val length : t -> int
(** Number of distinct pairs added. *)

val capacity : t -> int
val occupancy : t -> float
val stats : t -> stats

(** A sharded variant safe for concurrent use from multiple domains —
    the shared failure memo of the parallel checker driver.

    The pair hash picks a shard; each shard is an open-addressed table
    of immutable boxed [Pair] entries held in per-slot [Atomic.t] cells,
    inserted by CAS, so a reader either sees a whole pair or an empty
    slot — torn reads are impossible and therefore so are false
    positives.  False {e negatives} are possible (an add racing a shard
    rehash may be momentarily invisible) and are sound for a failure
    memo: the worst case is re-exploring a subtree already known to
    fail.  Adds are never lost: a rehash freezes each still-empty slot of
    the old table before publishing the new one, so an add either lands
    before the copy reaches its slot (and is copied) or finds the slot
    frozen and retries on the new table. *)
module Sharded : sig
  type t

  val create : ?shards:int -> ?capacity:int -> unit -> t
  (** [shards] (default 8) is rounded up to a power of two [>= 1];
      [capacity] (default 256) is the initial {e per-shard} slot count,
      rounded up to a power of two [>= 8]. *)

  val mem : t -> k1:int -> k2:int -> bool
  (** Lock-free. @raise Invalid_argument if [k1 < 0]. *)

  val add : t -> k1:int -> k2:int -> unit
  (** Idempotent; lock-free except when a shard rehashes (per-shard
      mutex). @raise Invalid_argument if [k1 < 0]. *)

  val length : t -> int
  (** Approximate while adds are in flight (an insert is counted just
      after it lands); exact once all adders have quiesced. *)

  val shards : t -> int
  val occupancy : t -> float
  val stats : t -> stats
  val shard_occupancy : t -> float array
  (** Per-shard occupancy, for the memo-shard gauge. *)
end
