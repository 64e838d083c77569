module Hist = History.Hist

type tree = { hist : Hist.t; children : tree list }

let node hist children =
  List.iter
    (fun c ->
      if not (Hist.is_prefix hist ~of_:c.hist) then
        invalid_arg "Treecheck.node: child does not extend parent")
    children;
  { hist; children }

let chain = function
  | [] -> invalid_arg "Treecheck.chain: empty"
  | hs ->
      let rec build = function
        | [] -> assert false
        | [ h ] -> node h []
        | h :: rest -> node h [ build rest ]
      in
      build hs

let of_prefixes h = chain (Hist.prefixes h)

(* Search: assign to each node a linearization whose (write) sequence
   extends the parent's committed (write) prefix.  We enumerate the
   distinct candidate orders at each node (bounded) and recurse.

   Prep cache: the search probes each node under many prefixes (one per
   surviving candidate of its parent, re-entered on backtrack), but
   Lincheck's O(n²) preprocessing depends only on the node's history — so
   the tree is annotated with its prepped form once, up front, and the
   candidate/recursion loop reuses it.

   Failure memo: whether a node's subtree can be solved depends only on
   the node and the prefix committed above it, yet every parent candidate
   that leads to a failed (node, prefix) pair would re-solve it — an
   exponential blow-up on failing trees.  Each search therefore records
   its failed pairs, keyed by the node's pre-order index and an interned
   prefix id in an [Ipset] (as [Lincheck]'s DFS memo is), and answers a
   repeated probe without visiting the node.  Only failures are recorded,
   so the first success in candidate order — the witness — is unchanged. *)

let enum_limit = 4096

type ptree = {
  phist : Hist.t;
  p : Lincheck.prepped;
  idx : int; (* pre-order index, the memo's node key *)
  pchildren : ptree list;
}

(* Nodes are numbered in pre-order but prepped children-first: on an
   over-cap chain [Too_large] then names the deepest node, the [n] that
   [rlin check] reports carry. *)
let prep_tree ~init t =
  let next = ref 0 in
  let rec go t =
    let idx = !next in
    incr next;
    let pchildren = List.map go t.children in
    { phist = t.hist; p = Lincheck.prep ~init t.hist; idx; pchildren }
  in
  go t

type memo = {
  failed : Ipset.t; (* (node index, prefix id) *)
  prefix_ids : (int list, int) Hashtbl.t;
  prunes : Obs.Metrics.Counter.t;
}

let fresh_memo m =
  {
    failed = Ipset.create ~capacity:16 ();
    prefix_ids = Hashtbl.create 16;
    prunes = Obs.Metrics.counter_h m "treecheck.memo_prunes";
  }

(* A prefix is interned only when a failure under it is recorded, so a
   prefix with no id has never failed anywhere. *)
let known_failure memo t prefix =
  match Hashtbl.find memo.prefix_ids prefix with
  | exception Not_found -> false
  | pid ->
      let hit = Ipset.mem memo.failed ~k1:t.idx ~k2:pid in
      if hit then Obs.Metrics.incr_h memo.prunes;
      hit

let record_failure memo t prefix =
  let pid =
    match Hashtbl.find memo.prefix_ids prefix with
    | pid -> pid
    | exception Not_found ->
        let pid = Hashtbl.length memo.prefix_ids in
        Hashtbl.add memo.prefix_ids prefix pid;
        pid
  in
  Ipset.add memo.failed ~k1:t.idx ~k2:pid

(* tree-search progress probe cadence (node visits between events) *)
let probe_interval = 64

let subset_strong_witness ?(metrics = Obs.Metrics.create ())
    ?(tracer = Obs.Tracer.null) ?jobs:_ ~init ~sel t =
  let pt = prep_tree ~init t in
  let nodes = Obs.Metrics.counter_h metrics "treecheck.nodes" in
  let cands_total = Obs.Metrics.counter_h metrics "treecheck.candidates" in
  let memo = fresh_memo metrics in
  let rec solve t ~prefix ~depth =
    if known_failure memo t prefix then None
    else begin
      Obs.Metrics.incr_h nodes;
      (* flight-recorder heartbeat: node visits, candidates generated,
         depth — armed-guarded so untraced searches pay one branch per
         node *)
      if Obs.Tracer.armed tracer then begin
        let nv = Obs.Metrics.read_h nodes in
        if nv mod probe_interval = 0 then
          ignore
            (Obs.Tracer.emit tracer ~parent:(-1)
               ~args:
                 [
                   ("nodes", Obs.Json.Int nv);
                   ( "candidates",
                     Obs.Json.Int (Obs.Metrics.read_h cands_total) );
                   ("depth", Obs.Json.Int depth);
                 ]
               ~sim:nv ~cat:"check" "treecheck.progress")
      end;
      (* candidate [sel]-subsequence orders of this node extending [prefix] *)
      let cands =
        Lincheck.orders_extending_prepped ~metrics t.p ~sel ~prefix
          ~limit:enum_limit
      in
      Obs.Metrics.incr_h ~by:(List.length cands) cands_total;
      let rec try_cands = function
        | [] ->
            record_failure memo t prefix;
            None
        | w :: rest -> (
            match solve_children t.pchildren ~prefix:w ~depth:(depth + 1) with
            | Some subs -> Some ((t.phist, w) :: subs)
            | None -> try_cands rest)
      in
      try_cands cands
    end
  and solve_children children ~prefix ~depth =
    (* reversed-accumulator build (the naive [sub @ subs] was quadratic in
       the pre-order concatenation) *)
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | c :: rest -> (
          match solve c ~prefix ~depth with
          | None -> None
          | Some sub -> go (List.rev_append sub acc) rest)
    in
    go [] children
  in
  solve pt ~prefix:[] ~depth:0

let subset_strong ?metrics ?tracer ?jobs ~init ~sel t =
  Option.is_some (subset_strong_witness ?metrics ?tracer ?jobs ~init ~sel t)

let write_strong_witness ?metrics ?tracer ?jobs ~init t =
  subset_strong_witness ?metrics ?tracer ?jobs ~init ~sel:History.Op.is_write t

let write_strong ?metrics ?tracer ?jobs ~init t =
  Option.is_some (write_strong_witness ?metrics ?tracer ?jobs ~init t)

let read_strong ?metrics ?tracer ?jobs ~init t =
  subset_strong ?metrics ?tracer ?jobs ~init ~sel:History.Op.is_read t

(* Full strong linearizability: same search over full op sequences, with
   its own failure memo. *)
let strong ?(metrics = Obs.Metrics.create ()) ~init t =
  let memo = fresh_memo metrics in
  let rec solve t ~prefix =
    if known_failure memo t prefix then false
    else begin
      let cands =
        Lincheck.enumerate_prepped ~metrics t.p ~limit:enum_limit
        |> List.map (List.map (fun (o : History.Op.t) -> o.id))
        |> List.filter (fun seq ->
               let rec starts_with p s =
                 match (p, s) with
                 | [], _ -> true
                 | _, [] -> false
                 | x :: p', y :: s' -> x = y && starts_with p' s'
               in
               starts_with prefix seq)
      in
      let ok =
        List.exists
          (fun seq -> List.for_all (fun c -> solve c ~prefix:seq) t.pchildren)
          cands
      in
      if not ok then record_failure memo t prefix;
      ok
    end
  in
  solve (prep_tree ~init t) ~prefix:[]

(* ----- Theorem 13's shape ----------------------------------------------------- *)

type fork = {
  g : Hist.t;
  h1 : Hist.t;
  h2 : Hist.t;
  wsl_impossible : bool;
  chains_ok : bool;
  all_linearizable : bool;
}

let fork ?metrics ~init (h1, g) (h2, g2) =
  if not (List.equal History.Event.equal_timed (Hist.events g) (Hist.events g2))
  then invalid_arg "Treecheck.fork: the two branches diverged inside G";
  let tree = node g [ node h1 []; node h2 [] ] in
  {
    g;
    h1;
    h2;
    wsl_impossible = not (write_strong ?metrics ~init tree);
    chains_ok =
      write_strong ?metrics ~init (chain [ g; h1 ])
      && write_strong ?metrics ~init (chain [ g2; h2 ]);
    all_linearizable =
      List.for_all (Lincheck.check ?metrics ~init) [ g; h1; h2 ];
  }
