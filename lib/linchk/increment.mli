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

    The checker knows ops by their index in the segment, [0, 1, 2, …] in
    invocation order, which the caller assigns ([Serve.Segmenter] keeps
    the one table from op ids to indices).  It counts neither pending ops
    nor ops past a cap: the caller detects quiescence and trips the op
    cap, through {!degrade}. *)

type reason =
  | Op_cap of { n : int; cap : int }
  | State_budget of { states : int; budget : int }
  | Shed of { pending : int; max_pending : int }
  | Entry_overflow of { cap : int }
      (** Only [State_budget] originates here; the others come via
          {!degrade} from the serving layer's op cap, backpressure and
          entry-set propagation. *)

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
  ?state_budget:int ->
  entry:History.Value.t list ->
  unit ->
  t
(** [create ~entry ()] starts a segment whose register may initially hold
    any value in [entry] (non-empty; duplicates ignored).  [state_budget]
    bounds reachable states: exceeding it degrades the segment — state
    is freed, events keep counting, and {!outcome} reports [Unknown].
    @raise Invalid_argument on an empty entry set. *)

val reset : t -> entry:History.Value.t list -> unit
(** [reset t ~entry] restarts [t] on a new segment, as if it were
    [create ~entry ()] with [t]'s registry and budgets, but on [t]'s own
    storage: a serving layer restarts a checker at every segment instead
    of allocating one per segment.  Storage that {!degrade} freed is
    rebuilt, and storage that grew past a fixed bound (512 slots) goes
    back to [create]'s sizes, so one large segment does not keep its
    arrays for the checker's lifetime.
    @raise Invalid_argument on an empty entry set. *)

val invoke : t -> op:int -> kind:History.Op.kind -> time:int -> unit
(** Feed the invocation of the segment's op number [op], which must be
    the number of ops invoked so far, with [time] non-decreasing — the
    serving layer quarantines violations before they reach here.  A
    degraded checker only counts the event.
    @raise Invalid_argument if [op] is out of order or reaches
    {!Lincheck.max_ops} while the checker is not degraded: a segment
    holds at most that many ops, so a caller with more trips an op cap
    first. *)

val respond : t -> op:int -> result:History.Value.t option -> time:int -> unit
(** Feed the response of op [op], which must have been invoked and not
    yet responded.  A read's required value resolves here (and
    retroactively, if the value is only written later in the stream —
    matching the offline prep's whole-table lookup). *)

val degrade : t -> reason -> unit
(** Externally force degradation (op cap, backpressure shed, entry-set
    overflow).  Idempotent: the first reason wins. *)

val states : t -> int
(** Current reachable-set size (0 after degradation). *)

val degraded : t -> reason option

val outcome : t -> outcome
(** Decide the segment as fed so far.  Terminal = every {e completed} op
    linearized, so at end-of-stream flush pending reads are ignored and
    pending writes are optional — the same contract as
    {!Lincheck.prep}.  With no op pending the [Pass] values are exact
    boundary values. *)
