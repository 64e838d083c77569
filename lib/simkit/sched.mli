(** The scheduler: the executable form of the paper's adversary.

    A schedule is a sequence of decisions "which process takes the next
    step".  A {e strong} adversary makes each decision with full knowledge
    of the run so far — including the outcomes of past coin flips — but not
    of future ones.  Concretely, a policy here is an OCaml function that
    inspects the scheduler (trace, fiber statuses, any register state it
    holds a handle to) and picks the next process to step; scripted
    adversaries (like the one in the proof of Theorem 6) simply call
    {!step} directly. *)

type t

val create :
  ?seed:int64 ->
  ?metrics:Obs.Metrics.t ->
  ?tracer:Obs.Tracer.t ->
  ?sink:(Trace.entry -> unit) ->
  unit ->
  t
(** [metrics] (default a fresh registry) receives the scheduler's
    counters — [sched.steps], [sched.coins], [sched.crashes],
    [sched.restarts], [sched.recycles], [sched.spawns], [sched.runs] —
    and the per-{!run}
    step histogram
    [sched.run.steps], plus everything its {!Trace.t} records.

    [tracer] (default {!Obs.Tracer.null}, i.e. off) is the flight
    recorder this scheduler — and every component built on it
    ({!Msgpass.Net}, the registers) — emits causal events to: [spawn],
    [step], [coin], [crash] and [watchdog] events in category ["sched"],
    stamped with the step clock and the acting pid as track.

    [sink] is passed to {!Trace.create}: given one, the trace hands every
    entry to it as it is recorded and keeps none. *)

val trace : t -> Trace.t
val rng : t -> Rng.t
val now : t -> int

val steps : t -> int
(** Total process steps taken so far, across every {!step}/{!run} call —
    the scheduler-step clock that time-based fault schedules
    ({!Faults.plan}'s [crash_at] and partitions) are keyed on. *)

val metrics : t -> Obs.Metrics.t
(** The registry this scheduler (and its trace, and any component built on
    it, e.g. {!Msgpass.Net}) records into. *)

val tracer : t -> Obs.Tracer.t
(** The flight recorder passed at {!create} ({!Obs.Tracer.null} when
    tracing is off) — components built on this scheduler emit through
    it, so one [?tracer] argument arms the whole stack. *)

val spawn : t -> pid:int -> (unit -> unit) -> unit
(** Register process [pid] with the given code.
    @raise Invalid_argument on duplicate pid. *)

val pids : t -> int list
(** All spawned pids, ascending. *)

val status : t -> pid:int -> Fiber.status
val runnable : t -> pid:int -> bool
(** Runnable and not crashed. *)

val live_pids : t -> int list
(** Pids that are runnable and not crashed, ascending. *)

val live_count : t -> int
(** [List.length (live_pids t)], counted over the scheduler's slot table
    without building the list: allocates nothing.  {!run} stops when it
    reaches 0. *)

val live_nth : t -> int -> int
(** [live_nth t k] is [List.nth (live_pids t) k], the [k]-th live pid in
    ascending order, found by a walk of the slot table that allocates
    nothing.  A policy picks a live process with
    [live_nth t (Rng.int rng (live_count t))].
    @raise Invalid_argument unless [0 <= k < live_count t]. *)

val step : t -> pid:int -> Fiber.status
(** Let process [pid] run until its next yield.
    @raise Invalid_argument if [pid] is unknown, crashed or finished. *)

val crash : t -> pid:int -> unit
(** Crash-stop the process: it takes no further steps.  Models the paper's
    crash failures (and ABD's assumption that fewer than half of the
    processes crash). *)

val crashed : t -> pid:int -> bool

val restart : t -> pid:int -> (unit -> unit) -> int
(** Crash–recovery: restart a crashed process with fresh code (a recovery
    routine — the crashed fiber's control state is gone for good, only
    whatever the process persisted elsewhere survives).  Bumps and
    returns the pid's {!incarnation}, clears the crashed flag, replaces
    the fiber ({!Fiber.discard}ing the crashed one, so its stack is
    freed), fires the [sched.restarts] counter and emits a ["recover"]
    flight-recorder event.
    @raise Invalid_argument if [pid] is unknown or has not crashed. *)

val recycle : t -> pid:int -> (unit -> unit) -> unit
(** Generational slot reuse: replace the {e finished} fiber at [pid] with
    fresh code.  Grows no scheduler structure (the pid keeps its slot)
    and bumps no incarnation (the previous occupant terminated normally —
    there is no pre-crash ghost to reject), so a fleet can run millions
    of short-lived client sessions through a fixed set of fiber slots
    with flat memory.  Fires [sched.recycles] and emits a ["recycle"]
    flight-recorder event.
    @raise Invalid_argument if [pid] is unknown, still runnable, failed,
    or crashed (crashed slots go through {!restart}). *)

val dispose : t -> unit
(** End the run: {!Fiber.discard} every fiber this scheduler owns, so
    the stacks of fibers left suspended (ABD's replica servers always
    are) or never started are freed now rather than never.  Afterwards no
    such pid is {!runnable} and {!step} on it raises [Invalid_argument];
    finished and failed fibers keep their status, the trace, RNG, step
    clock and incarnations are untouched, and a second [dispose] does
    nothing.  Emits no flight-recorder event and bumps no counter, so a
    disposed run reports exactly what it reported before.  Every driver
    that creates a scheduler and drops it calls this when the run ends,
    also when the run raises.  Call it from outside the fibers. *)

val incarnation : t -> pid:int -> int
(** How many times [pid] has been {!restart}ed (0 for a first-incarnation
    process).  {!Msgpass.Net} stamps every send with the sender's current
    incarnation so quorum collection can reject pre-crash ghosts. *)

val coin : t -> proc:int -> int
(** Flip a fair coin using the scheduler's RNG, record it in the trace
    (visible to the adversary from this moment on), and return 0 or 1. *)

type decision = Step of int | Halt

type policy = t -> decision
(** A schedule policy; consulted before every step. *)

type stall = {
  window : int;  (** the watchdog window that elapsed without progress *)
  total_steps : int;  (** scheduler step-clock value when it fired *)
  fibers : (int * string * bool) list;
      (** [(pid, status, crashed)] for every spawned fiber, ascending pid;
          status is ["runnable"], ["finished"] or ["failed"] *)
  detail : string;
      (** whatever the watchdog's [describe] adds — mailbox and in-flight
          state when built with [Net.watchdog]; [""] if none *)
}
(** A structured stall diagnostic: chaos reports and the regression corpus
    embed it as data ({!stall_json}); the CLI renders {!stall_message}. *)

exception Stalled of stall
(** Raised by {!run} when its watchdog fires. *)

val stall_message : stall -> string
(** The pre-rendered multi-line dump the CLI prints (fiber statuses, crash
    markers, the [detail] block). *)

val stall_json : stall -> Obs.Json.t
(** [{"kind":"stall","window":…,"total_steps":…,"fibers":[…],"detail":…}] *)

type watchdog = {
  window : int;  (** steps without progress before firing *)
  progress : unit -> int;
      (** a monotone progress measure (e.g. a sum of delivery and
          response counters); if it is unchanged across a whole window
          the system is quiescent-livelocked *)
  describe : unit -> string;
      (** extra component state for the stall report (may be [""]) *)
}

val run : ?watchdog:watchdog -> t -> policy:policy -> max_steps:int -> int
(** Drive the system with [policy] until it halts, no process is runnable,
    or [max_steps] decisions have been taken.  Returns the number of steps
    taken.

    With [watchdog], every [window] steps the [progress] measure is
    polled; if it did not move at all, the run is livelocked (every live
    fiber just spins/yields with nothing in flight and nothing completing)
    and {!Stalled} is raised with a structured diagnostic — instead of
    silently burning the remaining [max_steps].  Fires the
    [sched.watchdog.fired] counter and leaves a [watchdog] note in the
    trace. *)

val round_robin : policy
(** Fair policy: cycles over live processes.  Its [k]-th decision steps
    [live_nth t (k mod live_count t)]. *)

val random_policy : Rng.t -> policy
(** Uniformly random live process each step — the (weak) randomized
    scheduler used by the termination experiments.  A decision draws one
    [Rng.int rng (live_count t)] and steps that {!live_nth} pid, which is
    the pid at that index of {!live_pids}: the choice is a function of
    the RNG stream and the set of live pids alone.  It allocates only
    its [Step] box. *)

val scripted : int list -> policy
(** Follow a fixed pid script, skipping non-runnable entries; halts when
    the script is exhausted. *)
