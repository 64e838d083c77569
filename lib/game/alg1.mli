(** Algorithm 1 of the paper: the randomized game for [n >= 3] processes
    whose termination separates linearizability from write
    strong-linearizability.

    Processes [0] and [1] are the {e hosts}, processes [2 … n-1] the
    {e players}; they share three MWMR registers [R1], [R2] and [C].  Each
    asynchronous round has two phases:

    - Phase 1: host [i] writes [[i, j]] into [R1] (line 3); host [0] then
      flips a coin [c] and publishes it in [C] (lines 6–7).  Each player
      first resets [R1] and [C] to [⊥] (lines 19–20), reads [R1] twice
      (lines 21–22) and [C] once (line 23), and stays in the game only if
      it read [[c, j]] then [[1-c, j]] — i.e. only if the order in which
      the two hosts' writes took effect {e matches the coin} (lines 24–29).
    - Phase 2: everyone resets [R2] to 0; players increment it (lines
      31–34); the hosts stay only if they observe that all [n-2] players
      are still in (lines 10–13).

    With atomic or write strongly-linearizable registers the write order
    of [R1] is fixed before the coin is flipped, so each round survives
    with probability at most 1/2 and the game ends almost surely
    (Theorem 7).  With registers that are merely linearizable, a strong
    adversary can decide the write order {e after} seeing the coin and
    keep every process in the game forever (Theorem 6) — the scripted
    adversary in {!Thm6} does exactly that.

    The bounded-register variant of Appendix B (hosts write [i] instead of
    [[i, j]]) is selected with {!variant}; Lemma 20 shows the two variants
    have identical runs, which [test/test_game.ml] checks empirically. *)

type variant =
  | Unbounded  (** hosts write [[i, j]]: register [R1] grows with [j] *)
  | Bounded  (** Appendix B: hosts write [i]; [R1] holds only [⊥], 0, 1 *)

type outcome =
  | Exited of int  (** returned, after exiting the loop in round [j] *)
  | Exhausted  (** still looping when it hit the round cap *)

type config = {
  n : int;  (** number of processes, [>= 3] *)
  mode : Registers.Adv_register.mode;  (** register [R1]'s mode *)
  aux_mode : Registers.Adv_register.mode option;
      (** mode of [R2] and [C]; [None] = same as [mode].  The ablation
          experiment (E9) sets these apart: Theorem 7's coin argument
          hinges on [R1] alone, and indeed the game's fate tracks [R1]'s
          mode, not the auxiliary registers'. *)
  variant : variant;
  max_rounds : int;  (** safety cap so non-terminating runs stop *)
  seed : int64;
}

val default : config
(** [n = 5], atomic, unbounded, 64 rounds, seed 1. *)

type handles = {
  sched : Simkit.Sched.t;
  r1 : Registers.Adv_register.t;
  r2 : Registers.Adv_register.t;
  c : Registers.Adv_register.t;
  outcome_of : int -> outcome option;  (** per-process result so far *)
  round_of : int -> int;  (** round the process is currently in (0 if not started) *)
}

val setup :
  ?after:(pid:int -> unit) -> ?metrics:Obs.Metrics.t -> config -> handles
(** Create the registers and spawn the [n] fibers (hosts 0,1 and players
    2…n-1).  The caller drives the scheduler — directly (adversaries) or
    with a policy.  [after] runs in the process's fiber when (and only
    when) it exits the game by returning — the composition hook used by
    the Corollary 9 construction 𝒜′ = Algorithm 1 ; 𝒜.  [metrics]
    (default a fresh registry) is handed to the run's scheduler and
    trace; parallel harnesses pass a per-run registry so concurrent games
    never share a sink. *)

type result = {
  outcomes : (int * outcome) list;  (** pid → outcome, every pid present *)
  max_round : int;  (** largest round any process entered *)
  terminated : bool;  (** all processes returned (no [Exhausted]) *)
  handles : handles;
}

val collect : config -> handles -> result
(** Snapshot the run's results ([Exhausted] for processes still looping). *)

val run_random : ?metrics:Obs.Metrics.t -> config -> max_steps:int -> result
(** Uniformly random scheduler seeded from [config.seed]. *)

val run_round_robin :
  ?metrics:Obs.Metrics.t -> config -> max_steps:int -> result
