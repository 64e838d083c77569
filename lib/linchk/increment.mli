(** Incremental single-object linearizability over an event stream.

    Where {!Lincheck.decide} searches a {e finished} history, this module
    maintains the full set of reachable DFS states — (done-mask,
    interned-value-id) pairs under exactly [decide]'s availability rules
    — across one event fed at a time.  At a quiescent point (no pending
    invocation) the terminal states decide the segment and their value
    ids are precisely the register values the segment can leave behind,
    which seeds the next segment's entry set (DESIGN.md §15).

    Verdicts agree with the offline checker by construction: the
    reachable set is closed under the same transition relation
    [Lincheck.decide] explores, so "some terminal state is reachable"
    here iff [decide] finds a witness on the same (sub-)history.

    One deliberate asymmetry: the op cap counts {e every} invocation,
    including reads that are still pending when the segment is flushed
    at end-of-stream (the offline prep drops those before counting).
    At a quiescent boundary there are no pending ops, so the counts
    coincide exactly where verdict agreement is promised. *)

type reason =
  | Op_cap of { n : int; cap : int }
  | State_budget of { states : int; budget : int }
  | Shed of { pending : int; max_pending : int }
  | Entry_overflow of { cap : int }
      (** The last two never originate here: they come via {!degrade}
          from the serving layer's backpressure and entry-set
          propagation. *)

val reason_cause : reason -> string
(** Stable short tag: ["op-cap"], ["state-budget"], ["shed"],
    ["entry-overflow"] — the ["cause"] field of serialized verdict
    reasons. *)

type outcome =
  | Pass of History.Value.t list
      (** Linearizable; the values are the feasible boundary values (every
          value some linearization leaves in the register), in interning
          order — entry values first, then first-write order. *)
  | Fail
  | Unknown of reason

type t

val default_state_budget : int

val create :
  ?metrics:Obs.Metrics.t ->
  ?cap:int ->
  ?state_budget:int ->
  entry:History.Value.t list ->
  unit ->
  t
(** [create ~entry ()] starts a segment whose register may initially hold
    any value in [entry] (non-empty; duplicates ignored).  [cap]
    (default {!Lincheck.max_ops}) bounds ops per segment; [state_budget]
    bounds reachable states.  Exceeding either budget degrades the
    segment: state is freed, events keep counting, and {!outcome}
    reports [Unknown].
    @raise Invalid_argument on an empty entry set or a cap outside
    [1..Lincheck.max_ops]. *)

val reset : t -> entry:History.Value.t list -> unit
(** [reset t ~entry] restarts [t] on a new segment, as if it were
    [create ~entry ()] with [t]'s registry and budgets, but on [t]'s own
    storage: a serving layer keeps one checker per object and restarts
    it at every segment instead of allocating one per segment.  Storage
    that {!degrade} freed is rebuilt, and storage that grew past a fixed
    bound (512 slots) goes back to [create]'s sizes, so one large
    segment does not keep its arrays for the checker's lifetime.
    @raise Invalid_argument on an empty entry set. *)

val invoke : t -> id:int -> kind:History.Op.kind -> time:int -> unit
(** Feed an invocation.  [id] must be fresh within the segment and [time]
    non-decreasing — the serving layer quarantines violations before they
    reach here. *)

val respond : t -> id:int -> result:History.Value.t option -> time:int -> unit
(** Feed a response.  A read's required value resolves here (and
    retroactively, if the value is only written later in the stream —
    matching the offline prep's whole-table lookup). *)

val degrade : t -> reason -> unit
(** Externally force degradation (backpressure shed, entry-set overflow).
    Idempotent: the first reason wins. *)

val n : t -> int
(** Invocations fed so far (including post-degradation ones). *)

val pending : t -> int
(** Invoked but not yet responded.  [pending t = 0] with [n t > 0] is the
    quiescent condition under which {!outcome}'s [Pass] values are exact
    boundary values. *)

val states : t -> int
(** Current reachable-set size (0 after degradation). *)

val degraded : t -> reason option

val outcome : t -> outcome
(** Decide the segment as fed so far.  Terminal = every {e completed} op
    linearized, so at end-of-stream flush pending reads are ignored and
    pending writes are optional — the same contract as
    {!Lincheck.prep}. *)
