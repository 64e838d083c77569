(** Delta-debugging shrinker for chaos counterexamples.

    Given a config that tripped a monitor, descend the shrink lattice —
    fault probabilities one ladder rung at a time towards 0, the crash
    schedule and partitions by subset, workload operation counts towards
    a single write, the step budget by halving — accepting a neighbour
    only when re-executing it still trips the {e same} monitor.  Every
    step re-runs deterministically from the candidate's recorded seed, so
    shrinking is reproducible and its result is a valid corpus entry. *)

val candidates : Msgpass.Runs.Config.t -> Msgpass.Runs.Config.t list
(** One round of strictly-simpler valid neighbours, in a fixed
    deterministic order (fault plan, then workload, then budget).
    Exposed for the lattice tests. *)

type outcome = {
  config : Msgpass.Runs.Config.t;  (** the minimal failing config *)
  violation : Monitor.violation;  (** its violation (same monitor) *)
  attempts : int;  (** oracle executions performed *)
  steps : int;  (** accepted reductions *)
  exhausted : bool;  (** stopped on the attempt budget, not a fixpoint *)
}

val minimize :
  violation:Monitor.violation ->
  Msgpass.Runs.Config.t ->
  outcome
(** Greedy first-improvement descent to a fixpoint (no neighbour still
    fails the same way) or until 400 oracle executions.  When [exhausted]
    is [false], the result is a fixpoint: minimizing it again accepts
    zero further reductions. *)
