(** Deterministic pseudo-random number generator (SplitMix64).

    Every source of randomness in the simulator — coin flips, random
    schedulers, workload generators — draws from one of these, so whole
    experiments are reproducible from a single 64-bit seed.  We do not use
    [Stdlib.Random] because its global state would couple unrelated
    components and break run-for-run determinism. *)

type t
(** The 64-bit SplitMix64 state, kept unboxed in an 8-byte [Bytes.t] and
    read and written with [Bytes.get_int64_le]/[set_int64_le], so a draw
    boxes no state: {!int}, {!bool} and {!coin} allocate nothing, and
    {!float} and {!next_int64} only their boxed result.  The stream from
    each seed is plain SplitMix64 (gamma [0x9E3779B97F4A7C15]), pinned by
    [test/test_simkit.ml]. *)

val create : int64 -> t
val copy : t -> t
val next_int64 : t -> int64

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)

val float : t -> float
(** [float t] is uniform in [\[0, 1)] (53 bits of precision) — used by the
    fault-injection layer to test per-message probabilities. *)

val bool : t -> bool

val coin : t -> int
(** 0 or 1, uniform — the paper's coin flip (Algorithm 1, line 6). *)

val split : t -> t
(** Derive an independent stream (for per-process randomness). *)

val nth_seed : int64 -> int -> int64
(** [nth_seed seed i] is [seed + (i+1)·γ] (γ the gamma above): the seed
    of the [i]-th stream derived from [seed], a function of [(seed, i)]
    alone — a chaos search's [i]-th config, a fleet's [i]-th shard and a
    shard's [i]-th client slot.  Adjacent indices give streams offset by
    one draw, so a caller that needs them decorrelated starts from
    [split (create (nth_seed seed i))]. *)
