(** Statistics harnesses for the termination experiments (E1, E2).

    E1 (Theorem 6): under the scripted adversary with merely-linearizable
    registers, the game survives {e every} round budget — the measured
    survival rate is 1.0 at every budget, for every seed (i.e. for every
    sequence of coin outcomes).

    E2 (Theorem 7): with write strongly-linearizable registers the same
    adversary terminates the game at a round distributed geometrically:
    measured [P(round > j)] tracks [2^{-j}] (Lemma 19: each round survives
    with probability at most 1/2). *)

type survival = {
  budgets : int list;  (** round budgets probed *)
  alive_fraction : float list;  (** fraction of seeds still running *)
  runs : int;
}

val e1_survival :
  ?jobs:int -> ?metrics:Obs.Metrics.t ->
  n:int -> budgets:int list -> runs:int -> seed:int64 -> unit -> survival
(** Theorem-6 adversary, linearizable registers: for each budget, the
    fraction of seeds for which the game is still alive after that many
    rounds (expected: 1.0 everywhere).  Runs execute on up to [jobs]
    domains (default 1); each run records into a private registry, folded
    into [metrics] (default a fresh registry) in run order, and per-run
    seeds depend only on the run index — so the result and the folded
    metrics are identical for every [jobs]. *)

type termination = {
  runs : int;
  mean : float;
  max : int;
  tail : (int * float) list;  (** (j, empirical P(round > j)) *)
}

val e2_termination :
  ?variant:Alg1.variant -> ?jobs:int -> ?metrics:Obs.Metrics.t ->
  n:int -> max_rounds:int -> runs:int -> seed:int64 ->
  unit -> termination
(** Theorem-7 experiment: the same adversary against write
    strongly-linearizable registers, [runs] independent seeds.
    [jobs]/[metrics] as in {!e1_survival}. *)

val atomic_termination :
  ?jobs:int -> ?metrics:Obs.Metrics.t ->
  n:int -> max_rounds:int -> runs:int -> seed:int64 -> unit -> termination
(** Baseline: atomic registers under a random scheduler — the regime in
    which the paper's footnote observes the adversary has no power at all.
    [jobs]/[metrics] as in {!e1_survival}. *)

val pp_termination : Format.formatter -> termination -> unit
