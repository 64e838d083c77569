(** Public facade of the library: everything the paper defines, under one
    roof.

    This library reproduces {e On Register Linearizability and
    Termination} (Hadzilacos, Hu, Toueg — PODC 2021).  The paper's
    artifacts map to modules as follows:

    - Definitions 1–5 (precedence, linearization functions, strong and
      write-strong linearizability): {!Hist} ({!Hist.Seq} in particular)
      and the checkers in {!Lincheck}/{!Treecheck};
    - Algorithm 1 (the game) and its Appendix-B bounded variant:
      {!Game_alg1}; the Theorem-6/7 adversaries: {!Adversary};
    - Algorithm 2 (write strongly-linearizable MWMR from SWMR, vector
      timestamps): {!Wsl_register};
    - Algorithm 3 (the constructive write strong-linearization function):
      {!Wsl_function};
    - Algorithm 4 (Lamport-clock MWMR, linearizable only):
      {!Lamport_register};
    - Theorem 14's [f*] for SWMR registers: {!Fstar}; the ABD register it
      applies to: {!Abd};
    - Corollary 9's construction 𝒜′: {!Cor9} with {!Rand_consensus} as
      the task 𝒜;
    - Figures 1–4 as executable scenarios: {!Adversary} (Figs 1–2) and
      {!Scenario} (Figs 3–4).

    See DESIGN.md for the experiment index (E1–E8) and EXPERIMENTS.md for
    measured results. *)

(* ----- foundational types -------------------------------------------------- *)

module Value = History.Value
module Op = History.Op
module Event = History.Event
module Hist = History.Hist
module Timeline = History.Timeline
module Histgen = History.Gen
module Lamport = Clocks.Lamport
module Vector = Clocks.Vector

(* ----- observability --------------------------------------------------------- *)

module Json = Obs.Json
module Metrics = Obs.Metrics
module Span = Obs.Span
module Export = Obs.Export
module Tracer = Obs.Tracer

(* ----- simulation substrate ------------------------------------------------ *)

module Rng = Simkit.Rng
module Fiber = Simkit.Fiber
module Faults = Simkit.Faults
module Stable = Simkit.Stable
module Sched = Simkit.Sched
module Trace = Simkit.Trace
module Pool = Simkit.Pool

(* ----- registers ------------------------------------------------------------ *)

module Adv_register = Registers.Adv_register
module Weak_register = Registers.Weak_register
module Swmr = Registers.Swmr
module Wsl_register = Registers.Alg2
module Lamport_register = Registers.Alg4

(* ----- checkers and constructive linearization functions ------------------- *)

module Lincheck = Linchk.Lincheck
module Treecheck = Linchk.Treecheck
module Ipset = Linchk.Ipset
module Wsl_function = Linchk.Alg3
module Fstar = Linchk.Fstar
module Increment = Linchk.Increment

(* ----- streaming service ------------------------------------------------------ *)

module Serve = Serve

(* ----- the game, adversaries, experiments ----------------------------------- *)

module Game_alg1 = Game.Alg1
module Adversary = Game.Thm6
module Game_stats = Game.Stats
module Scenario = Scenarios

(* ----- message passing / ABD ------------------------------------------------- *)

module Net = Msgpass.Net
module Abd = Msgpass.Abd
module Mwabd = Msgpass.Mwabd
module Mwabd_scenario = Msgpass.Mwabd_scenario
module Abd_runs = Msgpass.Runs
module Run_config = Msgpass.Runs.Config

(* ----- the fleet engine -------------------------------------------------------- *)

module Fleet = Fleet

(* ----- chaos checking --------------------------------------------------------- *)

module Monitor = Check.Monitor
module Shrink = Check.Shrink
module Corpus = Check.Corpus
module Chaos = Check.Chaos

(* ----- consensus / Corollary 9 ----------------------------------------------- *)

module Commit_adopt = Consensus.Commit_adopt
module Rand_consensus = Consensus.Rand_consensus
module Cor9 = Consensus.Cor9

(* ----- convenience constructors ----------------------------------------------- *)

(** [wsl_mwmr sched ~name ~n ~init] is a fresh write strongly-linearizable
    MWMR register (Algorithm 2) for processes 1…n. *)
let wsl_mwmr sched ~name ~n ~init = Registers.Alg2.create ~sched ~name ~n ~init

(** [lamport_mwmr sched ~name ~n ~init] is a fresh merely-linearizable
    MWMR register (Algorithm 4). *)
let lamport_mwmr sched ~name ~n ~init =
  Registers.Alg4.create ~sched ~name ~n ~init

(** Is this (single-object) history linearizable?  (Definition 2.) *)
let is_linearizable ~init h = Linchk.Lincheck.check ~init h
