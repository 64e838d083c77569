(** Per-object streaming segmentation over a per-segment {!decider}.

    The segmentation invariant (DESIGN.md §15): a quiescent point — an
    event after which every invoked op on the object has responded —
    splits its history into independently-checkable segments; the only
    state crossing a boundary is the register's value, so segment [k+1]
    starts from segment [k]'s feasible boundary values and the
    conjunction of segment verdicts equals the offline verdict on the
    whole history.

    The segment bookkeeping, the screens on op ids, the op cap and the
    entry-set propagation live here once.  Only the decider varies:
    {!incremental} ({!Linchk.Increment}) serves, and {!Reference.offline}
    ({!Linchk.Lincheck.check}) is the self-check's oracle.

    A segment's op table numbers its ops [0, 1, 2, …] in arrival order,
    and deciders know ops by that number alone.  The segmenter counts the
    pending ops (a response that leaves none retires the segment) and
    trips the op cap at the (cap+1)-th invoke, reporting the segment's
    final op count.  One deliberate asymmetry: that count includes reads
    still pending when the segment is flushed at end of stream (the
    offline prep drops those).  At a quiescent boundary there are none,
    so the counts coincide exactly where verdict agreement is promised.

    A segmenter makes one decider, on its first segment, and restarts it
    at every later one; {!reassign} points a closed segmenter, decider
    and all, at another object. *)

type config = {
  seg_cap : int;  (** max ops per segment (≤ {!Linchk.Lincheck.max_ops}) *)
  state_budget : int;  (** max reachable states per segment *)
  values_cap : int;
      (** max materialized entry-set candidates after a non-[Ok] segment *)
}

val default_config : config

type decider = {
  invoke : op:int -> kind:History.Op.kind -> time:int -> unit;
  respond : op:int -> result:History.Value.t option -> time:int -> unit;
  degrade : Linchk.Increment.reason -> unit;
  degraded : unit -> Linchk.Increment.reason option;
  outcome : unit -> Linchk.Increment.outcome;
  restart : entry:History.Value.t list -> unit;
}
(** One object's decision procedure, one segment at a time, with the
    contract of the {!Linchk.Increment} operations of the same names
    ([restart] is {!Linchk.Increment.reset}): ops come numbered by the
    segmenter's op table, the decider trips only its own budget (the
    state budget, for {!incremental}), the op cap, entry overflow and
    shed come through [degrade], [outcome]'s [Pass] lists the feasible
    boundary values, entry values first, then first-write order, and
    [restart ~entry] forgets the segment and starts the next one from
    [entry], as a fresh decider would. *)

type decide =
  metrics:Obs.Metrics.t -> config -> entry:History.Value.t list -> decider
(** Start an object's first segment, whose register may hold any value
    of [entry]. *)

val incremental : decide
(** {!Linchk.Increment.create} under the config's [state_budget],
    restarted with {!Linchk.Increment.reset}. *)

type entry = { exact : bool; values : History.Value.t list; overflow : bool }
(** A segment's entry set: the register values it may start from.
    [exact = false] marks the over-approximation used after a [Fail] or
    [Unknown] segment; [overflow = true] means even that set outgrew
    [values_cap], so the segment degrades to [Entry_overflow]. *)

val entry_exact : History.Value.t list -> entry

type t

val create :
  ?metrics:Obs.Metrics.t ->
  ?decide:decide ->
  config:config ->
  obj:string ->
  entry:entry ->
  index:int ->
  unit ->
  t
(** [decide] (default {!incremental}) makes the segmenter's one decider
    on its first segment; every later segment restarts it.
    @raise Invalid_argument if [config.seg_cap] is outside
    [1..Linchk.Lincheck.max_ops]. *)

val reassign : t -> obj:string -> entry:entry -> index:int -> unit
(** Point a segmenter with no open segment at [obj], whose next segment
    carries [index] and starts from [entry], as [create] would; the
    decider stays, to be restarted on that segment.
    @raise Invalid_argument if a segment is open. *)

val obj : t -> string
val index : t -> int
(** The index the {e next} (or current open) segment carries. *)

val entry : t -> entry
(** The entry set of the next (or current open) segment — with {!index},
    the whole cross-segment state, which is what checkpoints persist. *)

val open_cost : t -> int
(** Events buffered by the open segment while not degraded — the
    object's contribution to the engine's pending-event bound. *)

val invoke :
  t -> id:int -> kind:History.Op.kind -> time:int -> (unit, string) result
(** [Error] is a semantic quarantine (duplicate op id in the segment);
    the event must then be dropped by the caller. *)

val respond :
  t ->
  id:int ->
  result:History.Value.t option ->
  time:int ->
  (Verdict.t option, string) result
(** [Ok (Some v)] when this response made the object quiescent and
    retired the segment.  [Error] quarantines: unknown id, double
    response, or a read response without a result (the op then stays
    pending — conservative). *)

val shed : t -> pending:int -> max_pending:int -> unit
(** Backpressure: degrade the open segment to a [Shed] unknown, freeing
    its frontier; subsequent events cost O(1) until quiescence. *)

val flush : t -> Verdict.t option
(** End-of-stream: decide the open segment (if any) with pending ops
    treated as {!Linchk.Lincheck.prep} treats them, marked
    [closed = false]. *)
