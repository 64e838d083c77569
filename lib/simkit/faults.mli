(** Deterministic, seed-driven fault plans for the message-passing layer.

    The paper's model is adversarial: Theorem 6's non-termination and the
    ABD constructions only make sense relative to a scheduler/network that
    may misbehave.  A {!plan} describes the misbehaviour statistically —
    per-delivery drop / duplication / deferral probabilities, a bounded
    reorder window, a crash schedule, and partition intervals — and a
    {!t} turns it into a reproducible stream of fault decisions drawn from
    a {e dedicated} {!Rng} (never the scheduler's or the delivery
    policy's), so attaching or detaching faults perturbs no other random
    stream, and identical (plan, seed) pairs replay identical faults
    whatever the degree of experiment parallelism.

    Faults apply at {e delivery} time ({!Msgpass.Net} consults {!draw}
    once per delivery attempt):
    - [Drop]: the message is discarded;
    - [Duplicate]: the message is delivered {e and} a copy is re-enqueued
      in flight (the copy is itself subject to faults later);
    - [Defer]: the message returns to the back of the in-flight queue —
      bounded per message by [delay_bound], so deferral alone can reorder
      a message past at most [delay_bound] delivery attempts and can never
      starve it forever;
    - [Deliver]: normal delivery.

    Crash schedules ([crash_at]) and partitions are time-based, keyed on
    the scheduler's step counter ({!Sched.steps}); the run driver applies
    {!crashes_due} from its policy, the network consults {!partitioned}
    before drawing.  All of it is deterministic in (plan, seed, schedule). *)

type plan = {
  drop : float;  (** per-delivery-attempt drop probability, in [0,1] *)
  duplicate : float;  (** per-delivery duplication probability, in [0,1] *)
  delay : float;  (** per-delivery deferral probability, in [0,1] *)
  delay_bound : int;
      (** max deferrals per message (the reorder window); must be > 0 for
          [delay] to have any effect *)
  crash_at : (int * int) list;
      (** [(step, node)]: crash [node] once the scheduler step counter
          reaches [step] — consumed via {!crashes_due} by the run driver *)
  recover_at : (int * int) list;
      (** [(step, node)]: restart [node] once the scheduler step counter
          reaches [step] — consumed via {!recoveries_due}.  Each entry must
          pair with an earlier [crash_at] entry for the same node: per
          node, crash and recover events must alternate starting with a
          crash, at strictly increasing steps (so a recovery of a
          never-crashed or still-running node is rejected by
          {!validate}). *)
  partitions : (int * int * int list) list;
      (** [(start, length, isolated)]: during scheduler steps
          [start <= step < start + length], messages crossing the boundary
          between [isolated] and the rest are deferred (held in flight) *)
}

val none : plan
(** The benign plan: all probabilities 0, no crashes, no partitions. *)

val is_benign : plan -> bool
(** No fault of any kind can ever fire. *)

val affects_delivery : plan -> bool
(** Some per-delivery fault (drop/duplicate/delay/partition) can fire —
    i.e. the network needs to consult the fault stream at delivery time. *)

val validate : plan -> unit
(** @raise Invalid_argument unless all probabilities are in [0,1], their
    sum is <= 1 (one uniform draw decides the action), [delay_bound >= 0]
    (and > 0 whenever [delay > 0]), crash/recover steps are non-negative,
    each node's crash and recover events alternate (crash first, strictly
    increasing steps), and the partition intervals are non-inverted
    (positive length), non-empty (isolate at least one node) and pairwise
    non-overlapping in time. *)

val plan_json : plan -> Obs.Json.t
(** The plan as data — embedded verbatim in chaos regression-corpus
    entries, so a minimal reproducer replays the exact fault plan. *)

val plan_of_json : Obs.Json.t -> (plan, string) result
(** Inverse of {!plan_json}; the parsed plan is {!validate}d, so a corpus
    entry can never smuggle in a malformed plan. *)

val prob_ladder : float list
(** The probability lattice (ascending, starting at 0) that the chaos
    generator draws drop/duplicate/delay rates from and the shrinker
    descends one rung at a time. *)

val shrink_plan : plan -> plan list
(** Mutation hook for the delta-debugging shrinker: every plan strictly
    smaller than [p] along exactly one axis — each probability moved one
    {!prob_ladder} rung toward 0, each [crash_at] entry dropped (together
    with the recovery paired to it, so alternation survives), each
    [recover_at] entry dropped on its own (crash–recover degrades to
    crash-stop), each partition dropped, the reorder window halved.
    Every candidate {!validate}s; a fully-benign plan has no
    candidates. *)

type action = Deliver | Drop | Duplicate | Defer

type t
(** A plan plus its dedicated fault RNG and crash-schedule cursor. *)

val create : ?seed:int64 -> plan -> t
(** Validates the plan.  [seed] (default [0xFA17L]) seeds the dedicated
    fault stream. *)

val plan : t -> plan

val draw : t -> deferrals:int -> action
(** Decide the fate of one delivery attempt, consuming exactly one RNG
    draw whatever the outcome (so fault streams stay aligned across
    plans with equal probabilities).  [deferrals] is how often this
    message was already deferred; at [delay_bound] the [Defer] band
    resolves to [Deliver]. *)

val partitioned : t -> step:int -> src:int -> dst:int -> bool
(** Does a partition interval active at [step] separate [src] from
    [dst]?  (Both inside or both outside an isolated set communicate.) *)

val partition_active : t -> step:int -> bool

val crashes_due : t -> step:int -> int list
(** Nodes whose [crash_at] step has arrived, each returned exactly once
    across the life of [t] (ascending schedule order). *)

val recoveries_due : t -> step:int -> int list
(** Nodes whose [recover_at] step has arrived, each entry returned
    exactly once across the life of [t] (ascending schedule order).  The
    run driver applies crashes before recoveries within one policy tick;
    validation guarantees a due recovery's crash fired at a strictly
    earlier step. *)
