(** The experiment battery: one entry per figure/theorem of the paper
    and per extension (E1–E15, DESIGN.md and EXPERIMENTS.md).  Callers
    pick experiments by id ({!ids}, {!all}); each {!report} carries the
    claim it probes, the shape the paper predicts and what was measured.

    [quick] variants use smaller run counts (used by `dune runtest`);
    the full battery is what `rlin experiments` prints.

    [jobs] (default 1) runs each experiment's independent Monte-Carlo
    runs on up to that many domains ({!Core.Pool}).  Every run records
    into a private metric registry folded back into the global one in run
    order, and per-run seeds depend only on the run index, so reports are
    identical — pass/measured text and metrics alike (modulo [wall_ms])
    — whatever [jobs] is. *)

type report = {
  id : string;  (** e.g. "E1" *)
  claim : string;  (** the paper's claim being probed *)
  expected : string;  (** the shape the paper predicts *)
  measured : string;  (** what this run measured *)
  pass : bool;
  metrics : (string * float) list;
      (** structured numbers behind [measured]: the experiment's headline
          figures (runs, means, steps/op) plus the instrumented stack's
          delta while it ran — scheduler steps and coins, checker states
          explored, simulated-time op latencies, wall-clock.  This is what
          [rlin experiments --json] exports, one JSONL record per report. *)
}

val pp_report : Format.formatter -> report -> unit

val report_json : report -> Obs.Json.t
(** The JSONL record: [{"kind":"report","id":…,"pass":…,"metrics":{…}}]. *)

val ids : string list
(** The battery's experiment ids, in order:
    - E1, Theorem 6 / Figures 1–2: survival under the adversary;
    - E2, Theorem 7: geometric termination with WSL registers;
    - E3, Theorem 10 / Figure 3: Algorithm 2 runs are WSL, witnessed
      on-line by Algorithm 3;
    - E4, Theorem 13 / Figure 4: no WSL function for Algorithm 4;
    - E5, Theorem 12: Algorithm 4 runs are linearizable;
    - E6, Theorem 14 / §6: ABD is linearizable and WSL under crashes;
    - E7, Corollary 9: the gate blocks or opens with the register mode;
    - E8, §5: steps per operation, Algorithm 2 vs Algorithm 4;
    - E9, ablation: only [R1]'s mode decides the game;
    - E10: multi-writer ABD is linearizable but not WSL;
    - E11: drop/duplication × minority-crash sweep over both ABDs;
    - E12: chaos self-test, clean sweep and seeded quorum bug;
    - E13: streaming serve agrees with the offline oracle;
    - E14: crash–recovery sweep and seeded unsafe-recovery bug;
    - E15: fleet scale, batched against unbatched. *)

val all :
  ?jobs:int ->
  ?only:string list ->
  ?faults:Core.Faults.plan ->
  quick:bool ->
  unit ->
  report list
(** Run the battery (or, with [only], the named subset — ids are
    case-insensitive and always run in battery order).  [faults] applies
    the given link-fault plan to the fault-aware experiments (E6, E10).
    E6's even-seeded runs crash nodes 3 and 4 at steps 60 and 120 unless
    the plan schedules its own crashes; E10 drops the crash schedule,
    since all three of its nodes are clients.  E11 and E12 always run
    their own sweeps.
    @raise Invalid_argument on an unknown id in [only]. *)
