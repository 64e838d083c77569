(** Per-node stable storage: the durable half of the crash–recovery model.

    Crash-stop needs no disk — a dead node never speaks again.  Crash–
    {e recovery} is only meaningful relative to what survives the crash,
    and this module is that model: each node owns a write-ahead log of
    records.  {!append} adds a record to the {e volatile} tail (page
    cache); {!persist} moves the durable frontier to the end of the log
    (fsync).  {!crash} discards the un-persisted suffix — exactly the
    torn-write semantics a real machine gives you — and returns how many
    records were lost, so callers can tell a lossless restart from
    amnesia.

    Persistence discipline is a {!policy}:
    - [Every]: every {!append} is immediately durable (write-through;
      safe and slow — the baseline the registers default to);
    - [Explicit]: nothing is durable until the caller says {!persist}
      (the register's "sync point" knob; [Never] is spelled "create with
      [Explicit] and never call {!persist}").

    All state is per-node and in-memory; "durable" is a frontier index,
    not an actual file. *)

type policy = Every | Explicit

type 'a t

val create :
  ?metrics:Obs.Metrics.t ->
  ?policy:policy ->
  ?auto_compact:bool ->
  n:int ->
  unit ->
  'a t
(** An empty store for nodes [0..n-1].  [policy] defaults to [Every].
    [auto_compact] (default [false]) runs {!compact} after every sync
    point, bounding each node's log to one durable record plus the
    volatile tail — the flat-memory mode million-write fleet runs need.
    [metrics] (default {!Obs.Metrics.global}) receives [stable.appends],
    [stable.persists] (records made durable), [stable.lost] (records
    discarded by crashes) and [stable.compacted] (superseded durable
    records dropped by compaction).
    @raise Invalid_argument if [n <= 0]. *)

val compact : 'a t -> node:int -> int
(** Drop every durable record of [node] except the newest — recovery only
    ever reads {!last_durable}, so the superseded prefix changes nothing
    a crash or recovery can observe.  The volatile tail is untouched.
    Returns how many records were dropped (counted in
    [stable.compacted]).  After compaction {!durable_len} is at most 1
    and {!log} starts at the surviving checkpoint. *)

val append : 'a t -> node:int -> 'a -> unit
(** Append one record to [node]'s volatile tail (then maybe persist, per
    the policy). *)

val persist : 'a t -> node:int -> unit
(** Move [node]'s durable frontier to the end of its log (no-op if
    already there). *)

val crash : 'a t -> node:int -> int
(** Discard [node]'s un-persisted suffix and return how many records
    were lost.  The durable prefix is untouched — it is what the node
    recovers from. *)

val last : 'a t -> node:int -> 'a option
(** The most recent surviving record (durable or volatile), i.e. what a
    running node reads back; [None] if the log is empty. *)

val last_durable : 'a t -> node:int -> 'a option
(** The most recent {e durable} record — all a node has after {!crash}. *)

val log : 'a t -> node:int -> 'a list
(** The surviving log, oldest first (durable prefix then volatile tail). *)

val durable_len : 'a t -> node:int -> int
(** Length of the durable prefix. *)

val len : 'a t -> node:int -> int
(** Total surviving log length ([durable_len] + volatile tail). *)

val lost : 'a t -> node:int -> int
(** Cumulative records this node has lost to {!crash}es. *)
