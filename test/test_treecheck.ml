(* Tests for the history-tree checkers (Definitions 3 and 4): existence of
   strong / write-strong linearization functions over explicit trees. *)

module V = Core.Value
module Op = Core.Op
module Hist = Core.Hist
module T = Core.Treecheck

let tc name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let init = V.Int 0

let op ?responded ?result ~id ~proc ~kind ~invoked () =
  Op.make ~id ~proc ~obj:"R" ~kind ~invoked ?responded ?result ()

let w ?responded ~id ~proc ~invoked v =
  op ~id ~proc ~kind:(Op.Write (V.Int v)) ~invoked ?responded ()

let r ~id ~proc ~invoked ~responded v =
  op ~id ~proc ~kind:Op.Read ~invoked ~responded ~result:(V.Int v) ()

(* The Theorem-13 shape.  G: two concurrent writes, w2 complete.  A later
   read in H1 forces w1 < w2 and one in H2 forces w2 < w1, so no
   committed write order of f(G) extends to both. *)
let refutation_tree () =
  let w1 = w ~id:1 ~proc:1 ~invoked:1 100 in
  let w2 = w ~id:2 ~proc:2 ~invoked:2 ~responded:5 200 in
  let ext v =
    Hist.of_ops
      [
        { w1 with responded = Some 7 };
        w2;
        r ~id:3 ~proc:3 ~invoked:8 ~responded:9 v;
      ]
  in
  T.node (Hist.of_ops [ w1; w2 ]) [ T.node (ext 200) []; T.node (ext 100) [] ]

(* Both extensions of G keep its write order: satisfiable. *)
let satisfiable_tree () =
  let w1 = w ~id:1 ~proc:1 ~invoked:1 ~responded:3 100 in
  let w2 = w ~id:2 ~proc:2 ~invoked:4 ~responded:6 200 in
  let g = Hist.of_ops [ w1; w2 ] in
  let h1 =
    Hist.of_ops [ w1; w2; r ~id:3 ~proc:3 ~invoked:8 ~responded:9 200 ]
  in
  let h2 =
    Hist.of_ops [ w1; w2; w ~id:3 ~proc:3 ~invoked:8 ~responded:9 300 ]
  in
  T.node g [ T.node h1 []; T.node h2 [] ]

(* The same histories at two places with different subtrees.  G: w2
   complete, w1 pending; H: w1 completes too; K: a later read forces
   w2 < w1.  Under G's first order [1; 2] the H node above K fails, so G
   settles on [2].  The lone H node succeeds under [1; 2]: a memo keyed by
   the history rather than the node would answer it from its twin's
   failure and change the witness. *)
let twin_tree () =
  let w1 = w ~id:1 ~proc:1 ~invoked:1 100 in
  let w2 = w ~id:2 ~proc:2 ~invoked:2 ~responded:5 200 in
  let w1' = { w1 with responded = Some 7 } in
  let g = Hist.of_ops [ w1; w2 ] and h = Hist.of_ops [ w1'; w2 ] in
  let k =
    Hist.of_ops [ w1'; w2; r ~id:3 ~proc:3 ~invoked:8 ~responded:9 100 ]
  in
  T.node Hist.empty
    [ T.node g [ T.node h [ T.node k [] ] ]; T.node g [ T.node h [] ] ]

(* G: one complete write w, one pending read.  H1 resolves the read to the
   initial value (read before w), H2 to w's value (read after w). *)
let pending_read_tree () =
  let wo = w ~id:1 ~proc:1 ~invoked:1 ~responded:4 100 in
  let rd = op ~id:2 ~proc:2 ~kind:Op.Read ~invoked:2 () in
  let resolved v =
    Hist.of_ops [ wo; { rd with responded = Some 6; result = Some (V.Int v) } ]
  in
  T.node
    (Hist.of_ops [ wo; rd ])
    [ T.node (resolved 0) []; T.node (resolved 100) [] ]

let structure_tests =
  [
    tc "node rejects non-extending children" (fun () ->
        let a = Hist.of_ops [ w ~id:1 ~proc:1 ~invoked:1 ~responded:2 100 ] in
        let b = Hist.of_ops [ w ~id:2 ~proc:1 ~invoked:1 ~responded:2 200 ] in
        Alcotest.check_raises "bad child"
          (Invalid_argument "Treecheck.node: child does not extend parent")
          (fun () -> ignore (T.node a [ T.node b [] ])));
    tc "chain rejects empty" (fun () ->
        Alcotest.check_raises "empty" (Invalid_argument "Treecheck.chain: empty")
          (fun () -> ignore (T.chain [])));
    tc "of_prefixes builds a full chain" (fun () ->
        let hist =
          Hist.of_ops
            [
              w ~id:1 ~proc:1 ~invoked:1 ~responded:2 100;
              r ~id:2 ~proc:2 ~invoked:3 ~responded:4 100;
            ]
        in
        let rec depth t =
          match t.T.children with [] -> 1 | c :: _ -> 1 + depth c
        in
        Alcotest.(check int) "depth" 5 (depth (T.of_prefixes hist)));
  ]

let wsl_tests =
  [
    tc "empty tree is trivially WSL" (fun () ->
        check_bool "empty" true (T.write_strong ~init (T.node Hist.empty [])));
    tc "sequential history chain is WSL" (fun () ->
        let hist =
          Hist.of_ops
            [
              w ~id:1 ~proc:1 ~invoked:1 ~responded:2 100;
              w ~id:2 ~proc:1 ~invoked:3 ~responded:4 200;
              r ~id:3 ~proc:2 ~invoked:5 ~responded:6 200;
            ]
        in
        check_bool "wsl" true (T.write_strong ~init (T.of_prefixes hist)));
    tc "concurrent writes on a single chain are WSL" (fun () ->
        let hist =
          Hist.of_ops
            [
              w ~id:1 ~proc:1 ~invoked:1 ~responded:10 100;
              w ~id:2 ~proc:2 ~invoked:2 ~responded:9 200;
              r ~id:3 ~proc:3 ~invoked:11 ~responded:12 100;
            ]
        in
        check_bool "wsl" true (T.write_strong ~init (T.of_prefixes hist)));
    tc "branching tree can refute WSL (hand-built Thm-13 shape)" (fun () ->
        (* G: two concurrent writes, one complete.  H1 forces w1<w2 via a
           read; H2 forces w2<w1 via a read.  No single committed order of
           f(G) extends to both. *)
        let w1 = w ~id:1 ~proc:1 ~invoked:1 100 (* pending in G *) in
        let w2 = w ~id:2 ~proc:2 ~invoked:2 ~responded:5 200 in
        let g = Hist.of_ops [ w1; w2 ] in
        (* H1: w1 completes; a later read sees 200 then 100?  To force
           w1 < w2 use a read that returns 200 after w1 completed... *)
        let h1 =
          Hist.of_ops
            [
              { w1 with responded = Some 7 };
              w2;
              r ~id:3 ~proc:3 ~invoked:8 ~responded:9 200;
            ]
        in
        (* H2: a read after w2 completes returns 100 written by the still
           pending w1, then a LATER read returns ... hmm simpler: read
           returns 100, then a second read returns 200 is illegal...  Use:
           read after everything returns 100 => w1 last => w2 < w1. *)
        let h2 =
          Hist.of_ops
            [
              { w1 with responded = Some 7 };
              w2;
              r ~id:3 ~proc:3 ~invoked:8 ~responded:9 100;
            ]
        in
        check_bool "chain1" true (T.write_strong ~init (T.chain [ g; h1 ]));
        check_bool "chain2" true (T.write_strong ~init (T.chain [ g; h2 ]));
        check_bool "tree" false
          (T.write_strong ~init (T.node g [ T.node h1 []; T.node h2 [] ])));
    tc "witness returned on success extends along the chain" (fun () ->
        let hist =
          Hist.of_ops
            [
              w ~id:1 ~proc:1 ~invoked:1 ~responded:4 100;
              w ~id:2 ~proc:2 ~invoked:5 ~responded:8 200;
            ]
        in
        match T.write_strong_witness ~init (T.of_prefixes hist) with
        | None -> Alcotest.fail "expected a witness"
        | Some assignments ->
            let rec is_prefix p q =
              match (p, q) with
              | [], _ -> true
              | _, [] -> false
              | x :: p', y :: q' -> x = y && is_prefix p' q'
            in
            let rec chain_ok = function
              | (_, a) :: ((_, b) :: _ as rest) ->
                  is_prefix a b && chain_ok rest
              | _ -> true
            in
            check_bool "monotone" true (chain_ok assignments));
  ]

let strong_tests =
  [
    tc "atomic-looking chain is strongly linearizable" (fun () ->
        let hist =
          Hist.of_ops
            [
              w ~id:1 ~proc:1 ~invoked:1 ~responded:2 100;
              r ~id:2 ~proc:2 ~invoked:3 ~responded:4 100;
            ]
        in
        check_bool "strong" true (T.strong ~init (T.of_prefixes hist)));
    tc "WSL does not imply strong: a pending read refutes strong only"
      (fun () ->
        (* Since the complete w must be in f(G), f(G) cannot be a prefix
           of both extensions of [pending_read_tree]: strong
           linearizability fails on the tree.  Write strong-
           linearizability is untouched — the write order never changes. *)
        let tree = pending_read_tree () in
        check_bool "wsl ok" true (T.write_strong ~init tree);
        check_bool "strong refuted" false (T.strong ~init tree));
    tc "strong refuted when a committed write order must flip" (fun () ->
        check_bool "strong refuted" false
          (T.strong ~init (refutation_tree ())));
  ]

let fig4_tests =
  [
    tc "fig4: no WSL function on the branching tree (Thm 13)" (fun () ->
        let f4 = Core.Scenario.fig4 () in
        check_bool "impossible" true f4.Core.Treecheck.wsl_impossible);
    tc "fig4: each chain alone admits a WSL function" (fun () ->
        let f4 = Core.Scenario.fig4 () in
        check_bool "chains" true f4.Core.Treecheck.chains_ok);
    tc "fig4: all three histories are linearizable (Thm 12)" (fun () ->
        let f4 = Core.Scenario.fig4 () in
        check_bool "lin" true f4.Core.Treecheck.all_linearizable);
    tc "fig4: G really is a common prefix" (fun () ->
        let f4 = Core.Scenario.fig4 () in
        check_bool "h1" true
          (Hist.is_prefix f4.Core.Treecheck.g ~of_:f4.Core.Treecheck.h1);
        check_bool "h2" true
          (Hist.is_prefix f4.Core.Treecheck.g ~of_:f4.Core.Treecheck.h2));
  ]

(* property: prefix chains of atomic-register histories always admit a
   write strong-linearization (atomic registers are WSL) *)
let props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"atomic history prefix-chains admit WSL"
         ~count:40
         (Arb.atomic { Core.Histgen.default_spec with n_ops = 6 })
         (fun hist -> T.write_strong ~init (T.of_prefixes hist)));
  ]

(* ----- prep cache and failure memo vs the plain search ---------------------
   The tree search preps each node once and reuses the prepped form
   across the candidate/recursion loop, and it answers a (node, prefix)
   pair that already failed from its memo.  These reference solvers are
   the plain path — a fresh Lincheck.prep and orders_extending_prepped
   on every visit, no memo — and must return identical witnesses. *)

let old_solve ~init ~sel t =
  let rec go (t : T.tree) ~prefix =
    let cands =
      Core.Lincheck.orders_extending_prepped
        (Core.Lincheck.prep ~init t.T.hist)
        ~sel ~prefix ~limit:4096
    in
    let rec try_cands = function
      | [] -> None
      | w :: rest -> (
          match children t.T.children ~prefix:w with
          | Some subs -> Some ((t.T.hist, w) :: subs)
          | None -> try_cands rest)
    in
    try_cands cands
  and children cs ~prefix =
    match cs with
    | [] -> Some []
    | c :: rest -> (
        match go c ~prefix with
        | None -> None
        | Some sub -> (
            match children rest ~prefix with
            | None -> None
            | Some subs -> Some (sub @ subs)))
  in
  go t ~prefix:[]

(* [Treecheck.strong] without its memo *)
let old_strong ~init t =
  let rec starts_with p s =
    match (p, s) with
    | [], _ -> true
    | _, [] -> false
    | x :: p', y :: s' -> x = y && starts_with p' s'
  in
  let rec go (t : T.tree) ~prefix =
    let cands =
      Core.Lincheck.enumerate ~init t.T.hist ~limit:4096
      |> List.map (List.map (fun (o : Op.t) -> o.id))
      |> List.filter (starts_with prefix)
    in
    List.exists
      (fun seq -> List.for_all (fun c -> go c ~prefix:seq) t.T.children)
      cands
  in
  go t ~prefix:[]

let shape w = List.map (fun (h, ws) -> (Hist.length h, ws)) w

let check_same_witness ?metrics name t sel =
  match
    (old_solve ~init ~sel t, T.subset_strong_witness ?metrics ~init ~sel t)
  with
  | None, None -> ()
  | Some a, Some b ->
      Alcotest.(check (list (pair int (list int))))
        (name ^ ": identical witness") (shape a) (shape b)
  | Some _, None -> Alcotest.failf "%s: verdict flipped to no" name
  | None, Some _ -> Alcotest.failf "%s: verdict flipped to yes" name

let prep_cache_tests =
  [
    tc "prep cache: identical witnesses on seeded prefix chains" (fun () ->
        let rand = Random.State.make [| 0xCACE |] in
        for i = 0 to 29 do
          let hist =
            Core.Histgen.atomic_history
              { Core.Histgen.default_spec with n_ops = 6 }
              rand
          in
          check_same_witness
            (Printf.sprintf "chain %d" i)
            (T.of_prefixes hist) Op.is_write
        done);
    tc "prep cache: identical on a branching refutation tree" (fun () ->
        let tree = refutation_tree () in
        check_same_witness "refutation tree" tree Op.is_write;
        check_same_witness "refutation tree, read order" tree Op.is_read);
    tc "memo: identical witnesses and strong verdicts on mixed chains and \
        branching trees"
      (fun () ->
        let m = Core.Metrics.create () in
        let rand = Random.State.make [| 0x3E30 |] in
        let chains =
          List.init 64 (fun i ->
              let spec = Core.Histgen.default_spec in
              let hist =
                if i mod 2 = 0 then Core.Histgen.atomic_history spec rand
                else Core.Histgen.arbitrary_history spec rand
              in
              (Printf.sprintf "mixed chain %d" i, T.of_prefixes hist))
        in
        let trees =
          chains
          @ [
              ("refutation tree", refutation_tree ());
              ("satisfiable branching tree", satisfiable_tree ());
              ("pending-read tree", pending_read_tree ());
              ("twin tree", twin_tree ());
              ( "fig4 tree",
                let f4 = Core.Scenario.fig4 () in
                T.node f4.T.g [ T.node f4.T.h1 []; T.node f4.T.h2 [] ] );
            ]
        in
        let fails = ref 0 in
        List.iter
          (fun (name, t) ->
            check_same_witness ~metrics:m name t Op.is_write;
            check_same_witness ~metrics:m (name ^ ", read order") t Op.is_read;
            let expect = old_strong ~init t in
            if not expect then incr fails;
            check_bool (name ^ ": strong") expect (T.strong ~metrics:m ~init t))
          trees;
        (* both verdicts occur, and the memo really answered probes *)
        check_bool "some trees not strong" true (!fails > 0);
        check_bool "some trees strong" true (!fails < List.length trees);
        check_bool "memo prunes" true
          (Core.Metrics.counter m "treecheck.memo_prunes" > 0));
  ]

(* ----- history 209 ---------------------------------------------------------
   History 209 of [rlin check --ops 10 --procs 4 --seed 1] (20 events)
   fails write strong-linearizability on its prefix chain.  Without the
   memo the search re-solved each failed (node, prefix) pair once per
   parent candidate: 1,130,784 node visits, and 149M enumeration states
   for [strong].  With it: 1,439 visits and about 426k states. *)

let history_209 () =
  let rand = Random.State.make [| 1; 0xC0FFEE |] in
  let spec =
    { Core.Histgen.default_spec with Core.Histgen.n_ops = 10; n_procs = 4 }
  in
  let rec draw i =
    let h =
      if i mod 2 = 0 then Core.Histgen.atomic_history spec rand
      else Core.Histgen.arbitrary_history spec rand
    in
    if i = 209 then h else draw (i + 1)
  in
  draw 0

let history_209_tests =
  [
    tc "history 209: refuted within 10,000 node visits" (fun () ->
        let h = history_209 () in
        Alcotest.(check int) "20 events" 20 (Hist.length h);
        let m = Core.Metrics.create () in
        check_bool "write-strong witness" true
          (Option.is_none
             (T.write_strong_witness ~metrics:m ~init (T.of_prefixes h)));
        let nodes = Core.Metrics.counter m "treecheck.nodes" in
        check_bool
          (Printf.sprintf "nodes %d <= 10000" nodes)
          true (nodes <= 10_000);
        (* the search is deterministic: a memo hit is not a visit *)
        Alcotest.(check (pair int int))
          "visits and memo hits" (1439, 1458)
          (nodes, Core.Metrics.counter m "treecheck.memo_prunes"));
    tc "history 209: strong refuted within 1M enumeration states" (fun () ->
        let m = Core.Metrics.create () in
        check_bool "strong" false
          (T.strong ~metrics:m ~init (T.of_prefixes (history_209 ())));
        let states = Core.Metrics.counter m "linchk.enum.states" in
        check_bool
          (Printf.sprintf "enum states %d <= 1000000" states)
          true
          (states <= 1_000_000));
  ]

(* ----- allocation ceiling ------------------------------------------------------ *)

(* The cost ledger's trees: 646 minor words per node on OCaml 5.1.1. *)
let alloc_tests =
  [
    tc "write_strong allocates at most 970 words per node" (fun () ->
        let trees =
          Alloc.histories
            { Core.Histgen.default_spec with n_ops = 8; n_procs = 3 }
            Core.Histgen.atomic_history ~count:8 ~seed:3
          |> List.map T.of_prefixes
        in
        Alloc.at_most "write_strong per node" 970.
          (Alloc.words_per ~counter:"treecheck.nodes" (fun m ->
               List.iter
                 (fun t -> ignore (T.write_strong ~metrics:m ~init t))
                 trees)));
  ]

let suite =
  [
    ("treecheck.structure", structure_tests);
    ("treecheck.write_strong", wsl_tests);
    ("treecheck.strong", strong_tests);
    ("treecheck.fig4", fig4_tests);
    ("treecheck.props", props);
    ("treecheck.prep_cache", prep_cache_tests);
    ("treecheck.history_209", history_209_tests);
    ("treecheck.alloc", alloc_tests);
  ]
