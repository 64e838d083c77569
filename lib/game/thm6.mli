(** The strong adversary of Theorem 6, and its best-effort counterpart for
    Theorem 7.

    {!run_linearizable} executes the schedule from the proof of Theorem 6
    against Algorithm 1 with [Linearizable] registers: in each round it
    lets host 0's write of [[0,j]] complete, observes the coin, and only
    {e then} linearizes host 1's still-pending write of [[1,j]] before or
    after it — choosing whichever order matches the coin — and slots the
    players' pending reads of [R1] between the two writes.  Every guard
    then passes and every process survives into round [j+1], for as many
    rounds as requested: the game provably never ends, regardless of coin
    outcomes.  Every register edit goes through [Adv_register]'s legality
    checks, so the constructed run is linearizable by construction.

    {!run_write_strong} plays the same adversary against [Write_strong]
    registers.  There the write order of [R1] is already irrevocable when
    host 0 completes its write — before the coin is visible — so the
    adversary can only {e guess}: it commits the two writes in a guessed
    order, and when the coin disagrees (probability 1/2 per round) the
    players' line-27 guard fails, everyone exits, and the game ends.  The
    returned result records the round at which termination happened,
    giving the geometric distribution of Theorem 7's argument
    (Lemma 19). *)

val play_round :
  Alg1.handles -> players:int list -> reorder:bool -> first_writer:int -> bool
(** Drive one full round of the schedule against an already-set-up game
    (exposed for the Corollary 9 experiments).  [reorder] grants the
    post-coin insertion power (sound only against [Linearizable]
    registers); [first_writer] is the pre-coin guess used when
    [reorder = false].  Returns whether all processes survived the
    round. *)

exception Stuck of string
(** A scripted schedule could not make the progress it expected (e.g. the
    adversary attempted an edit the register's mode forbids). *)

val run_linearizable :
  ?metrics:Obs.Metrics.t -> n:int -> rounds:int -> seed:int64 -> unit ->
  Alg1.result
(** Drive [rounds] full rounds of the game with merely-linearizable
    registers; every process is still in the game at the end
    ([terminated = false], [max_round > rounds]).
    @raise Invalid_argument if [n < 3] or [rounds < 1]. *)

val run_linearizable_r1_only :
  ?metrics:Obs.Metrics.t -> n:int -> rounds:int -> seed:int64 -> unit ->
  Alg1.result
(** Ablation (E9): [R1] merely linearizable but [R2] and [C] write
    strongly-linearizable.  The adversary still prevents termination —
    its power lies entirely in reordering [R1]'s writes after seeing the
    coin, pinning Theorem 7's mechanism on [R1]. *)

val run_write_strong :
  ?variant:Alg1.variant ->
  ?aux_mode:Registers.Adv_register.mode option ->
  ?metrics:Obs.Metrics.t ->
  n:int -> max_rounds:int -> seed:int64 -> unit ->
  Alg1.result
(** Same adversary, write strongly-linearizable registers.  Returns when
    the game ends (or at [max_rounds]).  The adversary's per-round guess
    is drawn from a stream derived from [seed].
    @raise Invalid_argument if [n < 3] or [max_rounds < 1]. *)

val run_bounded_linearizable :
  ?metrics:Obs.Metrics.t -> n:int -> rounds:int -> seed:int64 -> unit ->
  Alg1.result
(** Theorem 6 against the Appendix-B bounded-register variant: the same
    schedule works verbatim, confirming the appendix's claim that the
    bounded game has the same runs. *)
