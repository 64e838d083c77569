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
    have no pending reads, where it is exact.

    Each search keeps a failure memo.  Whether a node's subtree can be
    solved depends only on the node and the prefix committed above it, so
    a (node, prefix) pair that failed once is answered from the memo
    every later time a parent candidate leads to it.  Only failures are
    recorded, so the witness — the first success in candidate order — is
    the one the plain search finds.  On a failing tree this turns an
    exponential number of revisits into one visit per pair. *)

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

(** {2 Theorem 13's shape: one prefix, two extensions} *)

type fork = {
  g : History.Hist.t;  (** the common prefix *)
  h1 : History.Hist.t;
  h2 : History.Hist.t;
  wsl_impossible : bool;
      (** no write strong-linearization function exists on the tree
          [{G → H1, H2}] *)
  chains_ok : bool;  (** but each single chain [G ⊑ Hi] admits one *)
  all_linearizable : bool;  (** and every history alone is linearizable *)
}

val fork :
  ?metrics:Obs.Metrics.t ->
  init:History.Value.t ->
  History.Hist.t * History.Hist.t ->
  History.Hist.t * History.Hist.t ->
  fork
(** [fork ~init (h1, g1) (h2, g2)] judges two runs from one start: [hi]
    is run [i]'s history and [gi] its prefix [G].  [metrics] (default a
    fresh registry) receives the counters of every search it runs.
    @raise Invalid_argument if [g1] and [g2] differ in some event or
    time, or if some [hi] does not extend [gi] ({!node}). *)

val write_strong :
  ?metrics:Obs.Metrics.t ->
  ?tracer:Obs.Tracer.t ->
  ?jobs:int ->
  init:History.Value.t ->
  tree ->
  bool
(** Does a write strong-linearization function exist on this tree
    (Definition 4 restricted to the tree's histories)?  [metrics]
    (default a fresh registry) receives [treecheck.nodes] (node
    visits), [treecheck.candidates], [treecheck.memo_prunes] (probes
    answered by the failure memo, which are not visits) and the
    underlying {!Lincheck} counters — pass a private registry to isolate
    one run's numbers.

    An armed [tracer] (default {!Obs.Tracer.null}) receives a
    [treecheck.progress] event (category ["check"]) every 64 node visits:
    nodes visited, candidate orders generated, current tree depth.

    [jobs] is accepted and ignored: the search is sequential at every
    [jobs].  With the memo a sequential search beat every parallel split
    of it that was measured (DESIGN.md §14). *)

val strong : ?metrics:Obs.Metrics.t -> init:History.Value.t -> tree -> bool
(** Does a strong linearization function exist on this tree
    (Definition 3 restricted to the tree's histories)?  Conservative if an
    internal node has pending reads; exact otherwise.  The search has its
    own failure memo and counts its hits in [treecheck.memo_prunes]. *)

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
