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
   candidate/recursion loop reuses it. *)

let enum_limit = 4096

type ptree = { phist : Hist.t; p : Lincheck.prepped; pchildren : ptree list }

let rec prep_tree_seq ~init t =
  {
    phist = t.hist;
    p = Lincheck.prep ~init t.hist;
    pchildren = List.map (prep_tree_seq ~init) t.children;
  }

(* Prep is O(n²) per node and embarrassingly parallel across nodes, so
   with a domain budget it goes through the pool (pre-order flatten, map,
   rebuild in the same order).  A [Too_large] node raises either way —
   [Pool.map] re-raises the lowest task index, i.e. the same pre-order
   first offender the sequential walk hits. *)
let prep_tree ?(jobs = 1) ~init t =
  if jobs <= 1 then prep_tree_seq ~init t
  else begin
    let hists = ref [] in
    let rec collect t =
      hists := t.hist :: !hists;
      List.iter collect t.children
    in
    collect t;
    let arr = Array.of_list (List.rev !hists) in
    let preps =
      Simkit.Pool.map ~jobs (Array.length arr) (fun i ->
          Lincheck.prep ~init arr.(i))
    in
    let idx = ref 0 in
    let rec build t =
      let p = preps.(!idx) in
      incr idx;
      { phist = t.hist; p; pchildren = List.map build t.children }
    in
    build t
  end

(* tree-search progress probe cadence (node visits between events) *)
let probe_interval = 64

(* Raised out of a parallel subtree task when a lower-index task has
   already produced the winning assignment (see [solve_par]). *)
exception Cancelled

let no_stop () = false

let rec solve_sub ~m ~trc ~stop ~nodes ~cands_total ~sel t ~prefix ~depth =
  if stop () then raise Cancelled;
  Obs.Metrics.incr_h nodes;
  (* flight-recorder heartbeat: node visits, candidates generated, depth —
     armed-guarded so untraced searches pay one branch per node *)
  if Obs.Tracer.armed trc then begin
    let nv = Obs.Metrics.read_h nodes in
    if nv mod probe_interval = 0 then
      ignore
        (Obs.Tracer.emit trc ~parent:(-1)
           ~args:
             [
               ("nodes", Obs.Json.Int nv);
               ("candidates", Obs.Json.Int (Obs.Metrics.read_h cands_total));
               ("depth", Obs.Json.Int depth);
             ]
           ~sim:nv ~cat:"check" "treecheck.progress")
  end;
  (* candidate [sel]-subsequence orders of this node extending [prefix] *)
  let cands =
    Lincheck.orders_extending_prepped ~metrics:m t.p ~sel ~prefix
      ~limit:enum_limit
  in
  Obs.Metrics.incr_h ~by:(List.length cands) cands_total;
  let rec try_cands = function
    | [] -> None
    | w :: rest -> (
        match
          solve_children_sub ~m ~trc ~stop ~nodes ~cands_total ~sel t.pchildren
            ~prefix:w ~depth:(depth + 1)
        with
        | Some subs -> Some ((t.phist, w) :: subs)
        | None -> try_cands rest)
  in
  try_cands cands

and solve_children_sub ~m ~trc ~stop ~nodes ~cands_total ~sel children ~prefix
    ~depth =
  (* reversed-accumulator build (the naive [sub @ subs] was quadratic in
     the pre-order concatenation) *)
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | c :: rest -> (
        match
          solve_sub ~m ~trc ~stop ~nodes ~cands_total ~sel c ~prefix ~depth
        with
        | None -> None
        | Some sub -> go (List.rev_append sub acc) rest)
  in
  go [] children

(* {2 Parallel tree search}

   The search tree is an OR/AND alternation: a node ORs over its
   candidate orders, and each candidate ANDs over the node's children.
   Splitting descends the OR structure only — single-child spines (the
   shape [of_prefixes] produces) — so a frontier entry is one {e
   alternative}, carrying the (hist, order) assignments committed on the
   way down:

   - [Tdone]: a complete assignment (every node on the path was a leaf
     by the time its order was chosen) — an instant success;
   - [Tnode]: "solve this subtree under this committed prefix";
   - [Tand]: "solve this ≥2-child family under this prefix" — kept whole
     (an AND cannot be OR-split without changing task semantics).

   Entries are generated in candidate order, so entry i's alternatives
   precede entry i+1's in the sequential backtracking order; with the
   lowest-index-success rule (and cancellation only of strictly higher
   indices) the parallel witness is the sequential one — the same
   argument as the flat checker's frontier, DESIGN.md §14. *)

type passign = (Hist.t * int list) list

type tentry =
  | Tdone of passign
  | Tnode of { gnode : ptree; gprefix : int list; gacc : passign (* rev *) }
  | Tand of { gkids : ptree list; gprefix : int list; gacc : passign }

let expand_entries ~m ~nodes ~cands_total ~sel ~target root_entry =
  let expandable = function Tnode _ -> true | _ -> false in
  let expand_one = function
    | Tnode { gnode; gprefix; gacc } ->
        Obs.Metrics.incr_h nodes;
        let cands =
          Lincheck.orders_extending_prepped ~metrics:m gnode.p ~sel
            ~prefix:gprefix ~limit:enum_limit
        in
        Obs.Metrics.incr_h ~by:(List.length cands) cands_total;
        List.map
          (fun w ->
            let acc' = (gnode.phist, w) :: gacc in
            match gnode.pchildren with
            | [] -> Tdone (List.rev acc')
            | [ c ] -> Tnode { gnode = c; gprefix = w; gacc = acc' }
            | cs -> Tand { gkids = cs; gprefix = w; gacc = acc' })
          cands
    | e -> [ e ]
  in
  let rec level frontier =
    if
      List.length frontier >= target
      || not (List.exists expandable frontier)
    then frontier
    else begin
      let hit_terminal = ref false in
      let out = ref [] in
      List.iter
        (fun e ->
          if !hit_terminal then out := e :: !out
          else
            match e with
            | Tdone _ ->
                hit_terminal := true;
                out := e :: !out
            | e -> List.iter (fun c -> out := c :: !out) (expand_one e))
        frontier;
      let frontier' = List.rev !out in
      if !hit_terminal then frontier' else level frontier'
    end
  in
  level [ root_entry ]

let solve_par ~m ~trc ~jobs ~sel pt =
  let nodes = Obs.Metrics.counter_h m "treecheck.nodes" in
  let cands_total = Obs.Metrics.counter_h m "treecheck.candidates" in
  let entries =
    expand_entries ~m ~nodes ~cands_total ~sel ~target:(4 * jobs)
      (Tnode { gnode = pt; gprefix = []; gacc = [] })
  in
  let par_tasks = Obs.Metrics.counter_h m "treecheck.par.tasks" in
  let par_cancelled = Obs.Metrics.counter_h m "treecheck.par.cancelled" in
  match entries with
  | [] -> None
  | entries ->
      let tasks = Array.of_list entries in
      let ntasks = Array.length tasks in
      let regs = Array.init ntasks (fun _ -> Obs.Metrics.create ()) in
      let best = Atomic.make max_int in
      let results = Array.make ntasks None in
      let n_cancelled = Atomic.make 0 in
      let run_task ti =
        let reg = regs.(ti) in
        let tnodes = Obs.Metrics.counter_h reg "treecheck.nodes" in
        let tcands = Obs.Metrics.counter_h reg "treecheck.candidates" in
        let stop () = Atomic.get best < ti in
        let compute () =
          match tasks.(ti) with
          | Tdone a -> Some a
          | Tnode { gnode; gprefix; gacc } -> (
              match
                solve_sub ~m:reg ~trc:Obs.Tracer.null ~stop ~nodes:tnodes
                  ~cands_total:tcands ~sel gnode ~prefix:gprefix
                  ~depth:(List.length gacc)
              with
              | Some sub -> Some (List.rev_append gacc sub)
              | None -> None)
          | Tand { gkids; gprefix; gacc } -> (
              match
                solve_children_sub ~m:reg ~trc:Obs.Tracer.null ~stop
                  ~nodes:tnodes ~cands_total:tcands ~sel gkids ~prefix:gprefix
                  ~depth:(List.length gacc)
              with
              | Some subs -> Some (List.rev_append gacc subs)
              | None -> None)
        in
        match compute () with
        | Some a ->
            results.(ti) <- Some a;
            let rec cas_min () =
              let b = Atomic.get best in
              if ti < b && not (Atomic.compare_and_set best b ti) then
                cas_min ()
            in
            cas_min ()
        | None -> ()
        | exception Cancelled -> Atomic.incr n_cancelled
      in
      Simkit.Pool.iter ~jobs ntasks run_task;
      Array.iter (fun r -> Obs.Metrics.merge ~into:m r) regs;
      Obs.Metrics.incr_h ~by:ntasks par_tasks;
      Obs.Metrics.incr_h ~by:(Atomic.get n_cancelled) par_cancelled;
      if Obs.Tracer.armed trc then
        ignore
          (Obs.Tracer.emit trc ~parent:(-1)
             ~args:
               [
                 ("tasks", Obs.Json.Int ntasks);
                 ("cancelled", Obs.Json.Int (Atomic.get n_cancelled));
               ]
             ~sim:0 ~cat:"check" "treecheck.par.done");
      let b = Atomic.get best in
      if b = max_int then None else results.(b)

let subset_strong_witness ?(metrics = Obs.Metrics.global)
    ?(tracer = Obs.Tracer.null) ?(jobs = 1) ~init ~sel t =
  let pt = prep_tree ~jobs ~init t in
  if jobs <= 1 then begin
    let nodes = Obs.Metrics.counter_h metrics "treecheck.nodes" in
    let cands_total = Obs.Metrics.counter_h metrics "treecheck.candidates" in
    solve_sub ~m:metrics ~trc:tracer ~stop:no_stop ~nodes ~cands_total ~sel pt
      ~prefix:[] ~depth:0
  end
  else solve_par ~m:metrics ~trc:tracer ~jobs ~sel pt

let subset_strong ?metrics ?tracer ?jobs ~init ~sel t =
  Option.is_some (subset_strong_witness ?metrics ?tracer ?jobs ~init ~sel t)

let write_strong_witness ?metrics ?tracer ?jobs ~init t =
  subset_strong_witness ?metrics ?tracer ?jobs ~init ~sel:History.Op.is_write t

let write_strong ?metrics ?tracer ?jobs ~init t =
  Option.is_some (write_strong_witness ?metrics ?tracer ?jobs ~init t)

let read_strong ?metrics ?tracer ?jobs ~init t =
  subset_strong ?metrics ?tracer ?jobs ~init ~sel:History.Op.is_read t

(* Full strong linearizability: same search over full op sequences. *)
let rec solve_s ~m t ~prefix =
  let cands =
    Lincheck.enumerate_prepped ~metrics:m t.p ~limit:enum_limit
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
  List.exists
    (fun seq -> List.for_all (fun c -> solve_s ~m c ~prefix:seq) t.pchildren)
    cands

let strong ?(metrics = Obs.Metrics.global) ~init t =
  solve_s ~m:metrics (prep_tree ~init t) ~prefix:[]
