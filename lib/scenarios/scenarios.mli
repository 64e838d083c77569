(** Scripted replays of the paper's figures and random-run drivers for the
    register constructions.

    {2 Figure 3 (E3)} — three concurrent writes under Algorithm 2: [w2]
    completes at a time [t] while [w1] and [w3] are still active, and
    their eventually-computed timestamps end up respectively greater and
    smaller than [w2]'s.  The scenario shows Algorithm 3 ordering them
    correctly {e at time t} from their partially-formed timestamps
    ([w3 < w2], [w1] deferred), which is exactly the on-line decision the
    [[∞,…,∞]] initialization enables.

    {2 Figure 4 (E4)} — the two-extension counterexample behind
    Theorem 13: a common prefix [G] (where [w1] by [p1] has read
    [Val[1..2]] and [w2] by [p2] has completed) extended either by
    finishing [w1] and reading (forcing [w1] before [w2] in any
    linearization) or by a third write [w3] and reading (forcing [w2]
    before [w1]).  Any write strong-linearization function must commit an
    order for [f(G)], and one of the two extensions contradicts it —
    so Algorithm 4 is not write strongly-linearizable.  The history-tree
    checker certifies this mechanically. *)

type fig3 = {
  trace : Simkit.Trace.t;
  history : History.Hist.t;
  t_w2 : int;  (** the completion time of w2, the paper's [t] *)
  ws_at_t : int list;  (** Algorithm 3's write order at time [t] *)
  final_ws : int list;  (** final write order: w3, w2, w1 *)
  w1 : int;
  w2 : int;
  w3 : int;  (** op ids *)
}

val fig3 : unit -> fig3

val fig4 : unit -> Linchk.Treecheck.fork
(** Figure 4 on Algorithm 4: [h1] (w1 completes, then p3 reads w2's
    value) forces w1 < w2, and [h2] (p3's w3 completes first, then w1,
    and p3 reads w1's value) forces w2 < w1. *)

(** {2 Random-run drivers} *)

type mwmr_run = {
  trace : Simkit.Trace.t;
  history : History.Hist.t;  (** the implemented register's history *)
  completed : bool;
}

val random_alg2_run :
  ?metrics:Obs.Metrics.t ->
  n:int -> writes_per_proc:int -> reads_per_proc:int -> seed:int64 -> unit ->
  mwmr_run
(** [n] processes hammering one Algorithm 2 register under a seeded random
    scheduler; write values are globally distinct.  [metrics] is the
    registry the run's scheduler/network instrumentation records into
    (default the global one). *)

val random_alg4_run :
  ?metrics:Obs.Metrics.t ->
  n:int -> writes_per_proc:int -> reads_per_proc:int -> seed:int64 -> unit ->
  mwmr_run

val check_alg2_run : ?metrics:Obs.Metrics.t -> mwmr_run -> (unit, string) result
(** E3's per-run verification: Algorithm 3's output is a linearization of
    the history (Definition 2) and its write order is monotone across
    every trace prefix (property (P) of Definition 4). *)

val check_alg4_run : ?metrics:Obs.Metrics.t -> mwmr_run -> (unit, string) result
(** E5's per-run verification: plain linearizability (Theorem 12). *)

module Chaos = Chaos
(** The randomized strong adversary for {!Registers.Adv_register} — see
    {!Chaos.run}. *)
