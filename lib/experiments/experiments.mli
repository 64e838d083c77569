(** The experiment suite: one entry per figure/theorem of the paper
    (E1–E8 in DESIGN.md).  Each [run_*] function executes the experiment
    and returns a printable report; {!run_all} prints the whole battery
    in the shape recorded in EXPERIMENTS.md.

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

val export_jsonl : report list -> out_channel -> unit
(** One {!report_json} line per report. *)

val e1_nontermination : ?jobs:int -> quick:bool -> unit -> report
(** Theorem 6 / Figures 1–2: survival under the adversary. *)

val e2_wsl_termination : ?jobs:int -> quick:bool -> unit -> report
(** Theorem 7: geometric termination with WSL registers. *)

val e3_alg2_wsl : ?jobs:int -> quick:bool -> unit -> report
(** Theorem 10 / Figure 3: Algorithm 2 runs are write strongly-
    linearizable, witnessed on-line by Algorithm 3. *)

val e4_fig4_counterexample : ?jobs:int -> quick:bool -> unit -> report
(** Theorem 13 / Figure 4: no WSL function for Algorithm 4. *)

val e5_alg4_linearizable : ?jobs:int -> quick:bool -> unit -> report
(** Theorem 12: Algorithm 4 runs are linearizable. *)

val e6_abd :
  ?jobs:int -> ?faults:Core.Faults.plan -> quick:bool -> unit -> report
(** Theorem 14 / §6: ABD is linearizable and write strongly-linearizable,
    under crashes — and, with [faults], under a lossy/duplicating/delaying
    link plan too ({!Core.Faults}). *)

val e7_cor9 : ?jobs:int -> quick:bool -> unit -> report
(** Corollary 9: the gate blocks or opens with the register mode. *)

val e8_cost : ?jobs:int -> quick:bool -> unit -> report
(** §5 "harder than": per-operation step cost of Algorithm 2 (vector
    timestamps) vs Algorithm 4 (Lamport clocks), growing with n. *)

val e9_ablation : ?jobs:int -> quick:bool -> unit -> report
(** Ablation (DESIGN.md §5): only [R1]'s mode matters — swapping the modes
    of [R2]/[C] changes nothing, pinning Theorem 7's mechanism on the
    on-line ordering of [R1]'s writes. *)

val e10_mwabd :
  ?jobs:int -> ?faults:Core.Faults.plan -> quick:bool -> unit -> report
(** Extension: multi-writer ABD is linearizable but not write
    strongly-linearizable — Figure 4 transposed to message passing.
    [faults] as in {!e6_abd}, except its [crash_at] schedule is ignored:
    E10's 3-node topology makes every node a client, so there is nothing
    crashable ([rlin experiments --crash] therefore only affects E6). *)

val e11_faults : ?jobs:int -> quick:bool -> unit -> report
(** Robustness sweep: drop/duplication rates × scheduled minority crashes
    over both ABD registers.  Passes iff every run terminates (no watchdog
    stall, no exhausted budget), every completed history is linearizable,
    and the retransmission cost grows with the drop rate. *)

val e12_chaos : ?jobs:int -> quick:bool -> unit -> report
(** Chaos self-test ({!Core.Chaos}): a clean sweep of randomly sampled
    (workload × fault plan × crash schedule × policy) configs must report
    zero monitor violations, while the same search with the seeded
    quorum-intersection bug ({!Core.Chaos.Quorum_too_small}) must catch
    every run, shrink each to a minimal reproducer ([<= 1] crash, zero
    link-fault probabilities, one write), and replay the corpus entries
    verbatim — with byte-identical reports at any [jobs]. *)

val e15_fleet : ?jobs:int -> quick:bool -> unit -> report
(** Fleet scale ({!Core.Fleet}): sharded ABD groups serve one-op client
    sessions (1M+ at the full profile) through a fixed recycled slot
    pool under link faults and a crash/recovery pair.  Passes iff the
    batched and unbatched runs both complete with zero streaming-checker
    failures, batching strictly reduces delivery attempts per op, the
    session count equals the op count (every op is its own client), and
    reports are byte-identical across [-j]. *)

val ids : string list
(** The battery's experiment ids, in order: ["E1"; …; "E15"].  (E13, the
    streaming-serve agreement test, E14, the crash–recovery sweep +
    seeded unsafe-recovery bug hunt, and E15, the fleet-scale engine,
    run from the catalogue only.) *)

val all :
  ?jobs:int ->
  ?only:string list ->
  ?faults:Core.Faults.plan ->
  quick:bool ->
  unit ->
  report list
(** Run the battery (or, with [only], the named subset — ids are
    case-insensitive and always run in battery order).  [faults] applies
    the given link-fault plan to the fault-aware experiments (E6, E10);
    E11 and E12 always run their own sweeps.
    @raise Invalid_argument on an unknown id in [only]. *)

val run_all :
  ?jobs:int ->
  ?only:string list ->
  ?faults:Core.Faults.plan ->
  quick:bool ->
  Format.formatter ->
  unit
