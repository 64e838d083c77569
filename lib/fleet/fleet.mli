(** The fleet-scale workload engine (DESIGN.md §17): a key-space of
    register shards — key → shard by hash, each shard an independent
    {!Msgpass.Abd} / {!Msgpass.Mwabd} group with its own scheduler and
    network — driven by a {e generational pool} of short-lived client
    sessions that reuse a fixed set of fiber slots
    ({!Simkit.Sched.recycle}).  Each shard runs through
    {!Msgpass.Runs.drive_group}, the driver of every ABD and MW-ABD run:
    the fleet supplies only its sessions and their done-check.

    Flat-memory discipline, the property the 1M+-op experiment (E15)
    certifies: a shard's trace keeps no entries — its sink
    ({!Simkit.Sched.create}'s [?sink]) hands each history event, as it is
    recorded, to the streaming linearizability checker
    ({!Serve.Segmenter}) on sampled shards and drops it on the rest —
    replica stable logs auto-compact, and the metric histograms are
    log-linear buckets: every structure is bounded by the configuration,
    not the operation count.

    Shards share no mutable state, so they fan out over domains
    ({!Simkit.Pool.fold_runs}) and reports are byte-identical at any
    [jobs]. *)

type proto = Msgpass.Runs.Config.proto = Sw | Mw
(** {!Msgpass.Abd} (one writer/shard) or {!Msgpass.Mwabd}. *)

type config = {
  shards : int;  (** register groups, [>= 1] *)
  n : int;  (** nodes per shard, in [\[2, 100)] *)
  proto : proto;
  slots : int;  (** client fiber slots per shard; [n + slots <= 100] *)
  ops : int;  (** total client operations across the fleet *)
  session_len : int;  (** ops per client session before its slot recycles *)
  write_ratio : float;  (** op mix: fraction of writes, in [\[0, 1\]] *)
  keys : int;  (** key-space size; op [i] carries key [i mod keys] *)
  faults : Simkit.Faults.plan;
      (** applied to every shard over its own node set (per-shard fault
          RNGs are derived from the shard seed, so shards draw
          independently); [crash_at] nodes must leave a majority and, for
          [Sw], spare node 0 (the writer client) *)
  persist : [ `Every | `Never ];
  batch_window : int;  (** {!Msgpass.Net.set_batching}; [0] disables *)
  batch_max : int;  (** [1] disables *)
  seed : int64;
  sample : int;  (** the first [sample] shards are stream-checked *)
}

val default : config
val validate : config -> unit
(** @raise Invalid_argument on any ill-formed field. *)

val shard_of_key : shards:int -> int -> int
(** The key hash: a SplitMix64-style finalizer reduced mod [shards]. *)

val ops_per_shard : config -> int array
(** Per-shard operation counts under the key hash ([O(keys)] to
    compute).  Sums to [ops]. *)

type shard = {
  index : int;
  shard_ops : int;  (** operations completed (trace responds) *)
  sessions : int;  (** client sessions driven through the slots *)
  steps : int;
  completed : bool;
  stalled : bool;
  sampled : bool;
  segments : int;  (** streaming-checker verdicts (sampled shards only) *)
  fails : int;  (** [Fail] verdicts — must be 0 on healthy runs *)
  unknowns : int;
  decided_ops : int;  (** ops inside [Ok_] and [Fail] verdicts *)
  undecided_ops : int;
      (** ops inside [Unknown] verdicts.  On a sampled shard that
          completed, [decided_ops + undecided_ops = shard_ops]; both are 0
          on unsampled shards. *)
  sends : int;
  delivered : int;
  attempts : int;  (** delivery attempts ([net.delivery_attempts]) *)
  coalesced : int;  (** extra messages moved by batching *)
  recycles : int;
}

type report = {
  config : config;
  shards_r : shard list;  (** ascending shard index *)
  total_ops : int;
  total_sessions : int;
  total_steps : int;
  total_attempts : int;
  total_delivered : int;
  total_coalesced : int;
  total_segments : int;
  total_fails : int;
  total_unknowns : int;
  total_decided_ops : int;
  total_undecided_ops : int;
  completed : bool;  (** every shard completed without stalling *)
}

val run : ?jobs:int -> ?metrics:Obs.Metrics.t -> config -> report
(** Execute the fleet: one {!Simkit.Pool.fold_runs} task per shard, each
    with a private metric registry merged into [metrics] (default
    {!Obs.Metrics.global}), and its shard report folded into the list, in
    shard order.  Deterministic in the config
    alone; carries no wall clock (throughput is the caller's
    measurement).
    @raise Invalid_argument if {!validate} does. *)

val attempts_per_op : report -> float
(** [total_attempts / total_ops] — the amortization figure the batched
    vs. unbatched bench rows compare. *)

val config_json : config -> Obs.Json.t
val shard_json : shard -> Obs.Json.t

val report_json : report -> Obs.Json.t
(** [{"kind":"fleet_report",…}]; wall-clock-free, so reports diff clean
    across [-j]. *)

val pp : Format.formatter -> report -> unit
