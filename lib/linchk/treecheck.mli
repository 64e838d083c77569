(** Existence of (write-)strong linearization functions over explicit
    history trees.

    Definitions 3 and 4 of the paper quantify over {e sets} of histories:
    a (write) strong linearization function must map every history of the
    implementation to a linearization, consistently on prefixes.  A single
    history can never refute such a property — the refutation in Theorem 13
    needs a common prefix [G] with {e two} incompatible extensions
    [H₁], [H₂].  This module therefore checks trees:

    each node is a history, each child extends its parent (event-prefix),
    and we ask whether linearizations can be assigned to every node such
    that along each edge the (write) sequence of the parent's linearization
    is a prefix of the child's.

    The check is exact under the following proviso: pending {e reads} in
    internal (non-leaf) nodes are never included in the chosen
    linearizations.  For write strong-linearizability this loses nothing —
    property (P) constrains only write subsequences, so a read's inclusion
    in [f(G)] is irrelevant to every other node.  For full strong
    linearizability it makes the check conservative (it may report
    "impossible" when a function exists that linearizes a read before its
    response); the tests only apply {!strong} to trees whose internal nodes
    have no pending reads, where it is exact. *)

type tree = { hist : History.Hist.t; children : tree list }

val node : History.Hist.t -> tree list -> tree
(** Smart constructor.
    @raise Invalid_argument if some child does not extend the parent. *)

val chain : History.Hist.t list -> tree
(** A linear tree from a ⊑-increasing list of histories.
    @raise Invalid_argument on an empty list or a non-chain. *)

val of_prefixes : History.Hist.t -> tree
(** The chain of all event-prefixes of a history — the tree over which
    property (P) is tested for a single execution. *)

val write_strong :
  ?metrics:Obs.Metrics.t ->
  ?tracer:Obs.Tracer.t ->
  ?jobs:int ->
  init:History.Value.t ->
  tree ->
  bool
(** Does a write strong-linearization function exist on this tree
    (Definition 4 restricted to the tree's histories)?  [metrics]
    (default {!Obs.Metrics.global}) receives [treecheck.nodes] /
    [treecheck.candidates] and the underlying {!Lincheck} counters —
    pass a private registry to isolate a parallel run's numbers.

    An armed [tracer] (default {!Obs.Tracer.null}) receives a
    [treecheck.progress] event (category ["check"]) every 64 node visits:
    nodes visited, candidate orders generated, current tree depth.

    [jobs] (default 1) > 1 preps the tree's nodes in parallel and runs
    the parallel tree search on [Simkit.Pool]: the OR structure of the
    search (candidate orders, nested along single-child spines) is
    expanded into lex-ordered alternatives, each solved as a task, and
    the lowest-index success wins — verdicts and witnesses are identical
    to the sequential search at every [jobs] (DESIGN.md §14).  Parallel
    runs add [treecheck.par.tasks] / [treecheck.par.cancelled] counters
    and, with an armed [tracer], a
    post-hoc [treecheck.par.done] summary event. *)

val strong : ?metrics:Obs.Metrics.t -> init:History.Value.t -> tree -> bool
(** Does a strong linearization function exist on this tree
    (Definition 3 restricted to the tree's histories)?  Conservative if an
    internal node has pending reads; exact otherwise. *)

val write_strong_witness :
  ?metrics:Obs.Metrics.t ->
  ?tracer:Obs.Tracer.t ->
  ?jobs:int ->
  init:History.Value.t ->
  tree ->
  (History.Hist.t * int list) list option
(** On success, for each node (pre-order) the chosen write order (op ids). *)

(** {2 §7 generalization: strong linearizability w.r.t. a subset O} *)

val subset_strong :
  ?metrics:Obs.Metrics.t ->
  ?tracer:Obs.Tracer.t ->
  ?jobs:int ->
  init:History.Value.t ->
  sel:(History.Op.t -> bool) ->
  tree ->
  bool
(** Does a linearization function exist whose [sel]-subsequence is fixed
    irrevocably on-line — i.e. is a prefix along every edge of the tree?
    [sel = Op.is_write] is write strong-linearizability (Definition 4);
    [sel = fun _ -> true] is full strong linearizability restricted to the
    tree (with the pending-read caveat of {!strong});
    [sel = fun _ -> false] degenerates to per-node linearizability.  The
    same caveat as {!strong} applies to pending operations selected by
    [sel]: they are never included in internal nodes' linearizations. *)

val subset_strong_witness :
  ?metrics:Obs.Metrics.t ->
  ?tracer:Obs.Tracer.t ->
  ?jobs:int ->
  init:History.Value.t ->
  sel:(History.Op.t -> bool) ->
  tree ->
  (History.Hist.t * int list) list option

val read_strong :
  ?metrics:Obs.Metrics.t ->
  ?tracer:Obs.Tracer.t ->
  ?jobs:int ->
  init:History.Value.t ->
  tree ->
  bool
(** [subset_strong ~sel:Op.is_read]: only the {e read} order must be fixed
    on-line — the mirror image of Definition 4. *)
