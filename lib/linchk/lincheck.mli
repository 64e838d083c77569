(** Decision procedure for linearizability of register histories
    (Definition 2 of the paper).

    The checker performs a memoized depth-first search over the states
    (set of linearized operations, current register value): at each step it
    may linearize any operation all of whose real-time predecessors are
    already linearized, provided a completed read returns the current
    value.  Complete operations must eventually be linearized; pending
    operations may be linearized (writes take effect, reads are dropped —
    including a pending read never enables an otherwise-impossible
    linearization, so dropping them is complete for decision purposes).

    This is exact and terminating for finite histories; the search is
    exponential in the number of concurrent operations in the worst case
    but fast for the history sizes the experiments produce (the memo key
    is the pair (done-set, last-written value), which collapses most of
    the permutation space).

    Histories with more than {!max_ops} (62) operations on one object are
    rejected ({!Too_large}) — the done-set of the DFS state is a bitmask
    in one OCaml machine int (63 usable bits, one kept in reserve so
    [1 lsl n] stays positive), and the experiments stay far below this. *)

val max_ops : int
(** The per-object operation cap, 62. *)

exception Too_large of { n : int; cap : int }
(** Raised by every checker entry point when the single-object history
    has [n > cap] operations ([cap] defaults to {!max_ops}; drivers may
    impose a lower one via {!prep}'s [?cap]). *)

val effective_cap : jobs:int -> int
(** The operation cap [rlin check] imposes at [-j jobs]:
    [min max_ops (53 + 9 * (jobs - 1))].  The search is sequential at
    every [jobs]; the formula is kept so that [rlin check] reports stay
    byte-identical, header included.  Library entry points do {e not}
    apply it — their cap stays {!max_ops}. *)

val check :
  ?metrics:Obs.Metrics.t ->
  ?tracer:Obs.Tracer.t ->
  init:History.Value.t ->
  History.Hist.t ->
  bool
(** [check ~init h]: is the single-object history [h] linearizable with
    initial register value [init]?  [metrics] (default a fresh
    registry) receives the checker's counters
    ([linchk.states], [linchk.memo_prunes], [linchk.backtracks]) — every
    entry point below takes the same optional registry, so a pool task
    can isolate its run's numbers (see [Simkit.Pool]).

    With an armed [tracer] (default {!Obs.Tracer.null}), the DFS emits a
    [linchk.progress] event (category ["check"]) every 16384 states —
    states explored, memo prunes and size, backtracks, frontier depth —
    which the Perfetto export renders as counter tracks.  Disarmed, the
    probe costs one branch per state.

    The search is sequential; DESIGN.md §14 records why.
    @raise Invalid_argument if [h] spans several objects. *)

val witness :
  ?metrics:Obs.Metrics.t ->
  ?tracer:Obs.Tracer.t ->
  init:History.Value.t ->
  History.Hist.t ->
  History.Op.t list option
(** A linearization order, if one exists: the lex-least one, in op-index
    order.  Pending writes that the witness chose to linearize appear in
    place; pending reads never appear. *)

val finals :
  ?metrics:Obs.Metrics.t ->
  init:History.Value.t ->
  History.Hist.t ->
  History.Value.t list
(** [finals ~init h]: every value the register can hold after some
    linearization of [h] from [init] — one that linearizes every
    completed op and any subset of the pending writes.  Empty iff [h] is
    not linearizable.  Each value appears once, [init] first if present,
    then in first-write order.  The search visits every reachable state,
    so it costs what {!check} costs on a history that fails. *)

val check_multi :
  ?metrics:Obs.Metrics.t ->
  init_of:(string -> History.Value.t) ->
  History.Hist.t ->
  bool
(** Check each object's projection independently.  (Linearizability is a
    local property — Herlihy & Wing, Theorem 1 — so a multi-object history
    of registers is linearizable iff each per-object projection is.) *)

val enumerate :
  ?metrics:Obs.Metrics.t ->
  init:History.Value.t ->
  History.Hist.t ->
  limit:int ->
  History.Op.t list list
(** Up to [limit] distinct linearizations (used by the history-tree
    checkers in {!Treecheck}). *)

(** {2 Prepped histories}

    Every entry point above starts by preprocessing the history — an
    O(n²) precedence pass plus write-value interning.  Callers that probe
    the {e same} history under many different prefixes (the {!Treecheck}
    tree search) prep once and reuse: *)

type prepped
(** A history preprocessed for the search: ops array, precedence
    bitmasks, completion mask, and the interned write-value table. *)

val prep : ?cap:int -> init:History.Value.t -> History.Hist.t -> prepped
(** @raise Too_large on more than [cap] (default {!max_ops}) operations.
    @raise Invalid_argument on a multi-object history, a completed
    read with no recorded result, or [cap] outside [1..max_ops]. *)

val decide_prepped :
  ?metrics:Obs.Metrics.t ->
  ?tracer:Obs.Tracer.t ->
  ?jobs:int ->
  prepped ->
  History.Op.t list option
(** {!witness} on a prepped history.  [jobs] is accepted and ignored. *)

val enumerate_prepped :
  ?metrics:Obs.Metrics.t -> prepped -> limit:int -> History.Op.t list list
(** {!enumerate} on a prepped history. *)

val orders_extending_prepped :
  ?metrics:Obs.Metrics.t ->
  prepped ->
  sel:(History.Op.t -> bool) ->
  prefix:int list ->
  limit:int ->
  int list list
(** The distinct [sel]-subsequence id orders of linearizations whose
    [sel]-subsequence starts with exactly the ids of [prefix], up to
    [limit], sorted.  [sel = Op.is_write] gives write orders (property
    (P) of Definition 4), every op selected gives full orders
    (Definition 3), and [~limit:1 <> []] asks whether [prefix] extends
    at all. *)
