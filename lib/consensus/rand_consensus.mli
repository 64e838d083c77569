(** Randomized binary consensus from shared registers: the task 𝒜 of the
    Corollary 9 construction.

    The algorithm is the classic "commit–adopt + local coin" loop:
    each round runs a fresh {!Commit_adopt} instance; a [Commit]
    decides (and publishes the decision so laggards stop), an [Adopt]
    carries the adopted value forward, and a [Flip] draws a fresh local
    coin.  Safety — agreement and (binary) validity — is unconditional,
    inherited from commit–adopt; the tests assert it on every schedule.
    Termination holds with probability 1 under the randomized and
    round-robin schedulers used here (once every undecided process flips
    the same value in some round, the next round commits); the paper's
    Corollary 9 only requires {e some} randomized algorithm solving a
    task with probability-1 termination, which this supplies. *)

type cfg = {
  n : int;  (** processes 1…n *)
  max_rounds : int;  (** safety cap for the test harness *)
  seed : int64;
}

type result = {
  decisions : (int * int option) list;  (** proc → decided value *)
  agreed : bool;  (** all decided values equal *)
  valid : bool;  (** decided value is some process's input *)
  rounds_used : int;
}

val spawn :
  sched:Simkit.Sched.t -> cfg -> inputs:(int -> int) -> unit -> result
(** Register the n consensus fibers with the scheduler (fiber pid = the
    process index 1…n).  The returned thunk collects results once the
    caller has driven the scheduler. *)

val run_random : cfg -> inputs:(int -> int) -> result
(** Convenience: spawn and drive with a seeded random scheduler. *)

(** {2 Composition (used by {!Cor9})} *)

type instance

val make : sched:Simkit.Sched.t -> cfg -> instance

val body : instance -> proc:int -> input:int -> unit
(** The per-process consensus code, callable from inside any fiber —
    this is what runs after the Algorithm 1 gate in 𝒜′. *)

val results : instance -> result
