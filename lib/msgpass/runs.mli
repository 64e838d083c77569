(** The one driver of ABD and MW-ABD register groups.  Every run — an
    experiment's, a CLI subcommand's, the chaos search's, a corpus
    entry's — is a {!Config.t} executed by {!execute_config}, so any of
    them can be serialized with {!Config.json} and replayed byte for
    byte; every fleet shard ([Fleet]) runs through the same
    {!drive_group} with its own recycled client sessions.  Crashes and
    recoveries are the fault plan's step-clock schedules
    ([Simkit.Faults.crash_at] / [recover_at]). *)

type run = {
  history : History.Hist.t;  (** the register's history *)
  trace : Simkit.Trace.t;  (** the full trace (for [rlin trace] JSONL dumps) *)
  completed : bool;  (** all client fibers finished *)
  stalled : Simkit.Sched.stall option;
      (** the watchdog's structured diagnostic, when {!Simkit.Sched.run}
          detected quiescent livelock instead of finishing; render with
          {!Simkit.Sched.stall_message} / {!Simkit.Sched.stall_json} *)
  steps : int;
}

val check : ?metrics:Obs.Metrics.t -> run -> (unit, string) result
(** Verify the run's history is linearizable (Lincheck) and that the
    [f*] construction of Theorem 14 yields monotone write orders on every
    prefix (write strong-linearizability, Fstar).  A stalled run reports
    the watchdog diagnostic. *)

val validate_crash_schedule :
  ?recoveries:(int * int) list ->
  what:string ->
  n:int ->
  clients:int list ->
  (int * int) list ->
  unit
(** Validate a [(step, node)] crash schedule against an [n]-node register
    with the given client nodes: the crashed set must be a strict
    minority of in-range non-client nodes.  [recoveries] (default [[]])
    is a matching [(step, node)] recovery schedule; per node, crash and
    recovery events must alternate starting with a crash at strictly
    increasing steps — in particular a recovery of a never-crashed node
    is rejected (see {!Simkit.Faults.validate}).
    @raise Invalid_argument otherwise, prefixed with [what]. *)

(** A self-contained, serializable description of one register run — the
    unit the chaos search samples, the shrinker minimizes, and the
    regression corpus replays.  Equal configs produce byte-for-byte equal
    runs. *)
module Config : sig
  type proto = Sw | Mw  (** {!Abd} (one writer) or {!Mwabd}. *)

  type t = {
    proto : proto;
    n : int;  (** nodes, in [\[2, 100)] *)
    writers : int list;  (** exactly one for [Sw]; [>= 1] for [Mw] *)
    writes_each : int;
    readers : int list;
    reads_each : int;
    faults : Simkit.Faults.plan;
    seed : int64;
    policy : [ `Random | `Round_robin ];
    max_steps : int option;  (** [None] = {!auto_max_steps} *)
    quorum : int option;
        (** test-only quorum override ({!Replica.Make.create}); [None] =
            majority *)
    persist : [ `Every | `Never ];
        (** replica sync-point policy ({!Replica.persist}) *)
    unsafe_recovery : bool;
        (** skip the state-transfer recovery handshake — the test-only
            seeded bug ({!Replica.Make.create}); safe only with [`Every] *)
    batch_window : int;
    batch_max : int;
        (** per-destination delivery batching ({!Net.set_batching});
            [0]/[1] (the defaults) disable it and reproduce the
            pre-batching byte-identical behaviour.  Unbatched configs
            omit the fields from {!json}, so pre-batching corpus entries
            replay verbatim. *)
  }

  val default : t
  val auto_max_steps : t -> int

  val obj : t -> string
  (** The register name used in the trace ("ABD" or "MW"). *)

  val validate : t -> unit
  (** @raise Invalid_argument on any ill-formed field (bad node counts,
      non-distinct clients, out-of-range crash schedule, invalid fault
      plan, quorum or step budget out of range). *)

  val json : t -> Obs.Json.t
  val of_json : Obs.Json.t -> (t, string) result
  (** Inverse of {!json}; validates the decoded config.  Entries written
      before the crash–recovery model lack ["persist"] /
      ["unsafe_recovery"] / ["recover_at"]; they decode to the safe
      defaults so the committed corpus keeps replaying verbatim. *)
end

val drive_group :
  ?metrics:Obs.Metrics.t ->
  ?tracer:Obs.Tracer.t ->
  ?sink:(Simkit.Trace.entry -> unit) ->
  name:string ->
  compact:bool ->
  Config.t ->
  (Simkit.Sched.t ->
  write:(int -> int -> unit) ->
  read:(int -> unit) ->
  unit ->
  bool) ->
  Simkit.Trace.t * int * Simkit.Sched.stall option
(** [drive_group ~name ~compact c workload] runs one register group,
    the part every run and every fleet shard share.  It builds [c]'s ABD
    group (writer [List.hd c.writers]) or MW-ABD group, named [name],
    compacting replica logs when [compact]; attaches [c]'s fault plan and
    batching; and seeds the fault and scheduling streams from [c.seed].
    [workload sched ~write ~read] spawns the client fibers, which call
    [write pid v] and [read pid] in fiber [pid], and returns a done-check.
    Every scheduling decision runs the done-check first, then the plan's
    crashes and recoveries due at that step (crashes first), then halts
    if it said [true] or else picks by [c.policy], under
    {!Net.auto_deliver_policy} and {!Net.watchdog}, for [c.max_steps]
    steps (default {!Config.auto_max_steps}).  Returns the trace, the
    steps taken and the watchdog's stall, if any.  [c] is not validated.
    [?metrics], [?tracer] and [?sink] go to {!Simkit.Sched.create}. *)

val execute_config :
  ?metrics:Obs.Metrics.t -> ?tracer:Obs.Tracer.t -> Config.t -> run
(** Run a config to quiescence through {!drive_group}: one fiber per
    writer and reader, until the clients finish, the step budget runs out
    or the watchdog trips.  Deterministic in the config alone — an armed
    [tracer] observes the run without perturbing it, so re-executing a
    violating config with a flight recorder reproduces the violation
    {e and} its event stream.
    @raise Invalid_argument if {!Config.validate} does. *)
