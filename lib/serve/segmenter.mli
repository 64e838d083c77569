(** Per-object streaming segmentation over a per-segment {!decider}.

    The segmentation invariant (DESIGN.md §15): a quiescent point — an
    event after which every invoked op on the object has responded —
    splits its history into independently-checkable segments; the only
    state crossing a boundary is the register's value, so segment [k+1]
    starts from segment [k]'s feasible boundary values and the
    conjunction of segment verdicts equals the offline verdict on the
    whole history.

    The segment bookkeeping, the screens on op ids and the entry-set
    propagation live here once.  Only the decider varies: {!incremental}
    ({!Linchk.Increment}) serves, and {!Reference.offline}
    ({!Linchk.Lincheck.check}) is the self-check's oracle.  A segmenter
    makes one decider, on its first segment, and restarts it at every
    later one, so a stream of many short segments allocates no checker
    per segment. *)

type config = {
  seg_cap : int;  (** max ops per segment (≤ {!Linchk.Lincheck.max_ops}) *)
  state_budget : int;  (** max reachable states per segment *)
  values_cap : int;
      (** max materialized entry-set candidates after a non-[Ok] segment *)
}

val default_config : config

type decider = {
  invoke : id:int -> kind:History.Op.kind -> time:int -> unit;
  respond : id:int -> result:History.Value.t option -> time:int -> unit;
  degrade : Linchk.Increment.reason -> unit;
  degraded : unit -> Linchk.Increment.reason option;
  pending : unit -> int;
  outcome : unit -> Linchk.Increment.outcome;
  restart : entry:History.Value.t list -> unit;
}
(** One object's decision procedure, one segment at a time, with the
    contract of the {!Linchk.Increment} operations of the same names
    ([restart] is {!Linchk.Increment.reset}): the decider trips its own
    budgets (the op cap, and for {!incremental} the state budget), the
    segmenter's entry overflow and shed come through [degrade],
    [outcome]'s [Pass] lists the feasible boundary values, entry values
    first, then first-write order, and [restart ~entry] forgets the
    segment and starts the next one from [entry], as a fresh decider
    would. *)

type decide =
  metrics:Obs.Metrics.t -> config -> entry:History.Value.t list -> decider
(** Start an object's first segment, whose register may hold any value
    of [entry]. *)

val incremental : decide
(** {!Linchk.Increment.create} under the config's [seg_cap] and
    [state_budget], restarted with {!Linchk.Increment.reset}. *)

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
(** [decide] (default {!incremental}) makes the object's one decider on
    its first segment; every later segment restarts it. *)

val obj : t -> string
val index : t -> int
(** The index the {e next} (or current open) segment carries. *)

val entry : t -> entry
(** The entry set of the next (or current open) segment — with {!index},
    the whole cross-segment state, which is what checkpoints persist. *)

val is_open : t -> bool
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
