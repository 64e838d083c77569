(* Tests for the linearizability decision procedure (Definition 2). *)

module V = Core.Value
module Op = Core.Op
module Hist = Core.Hist
module L = Core.Lincheck
module Gen = Core.Histgen

let tc name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let init = V.Int 0

let op ?responded ?result ~id ~proc ~kind ~invoked () =
  Op.make ~id ~proc ~obj:"R" ~kind ~invoked ?responded ?result ()

let w ?responded ~id ~proc ~invoked v =
  op ~id ~proc ~kind:(Op.Write (V.Int v)) ~invoked ?responded ()

let r ~id ~proc ~invoked ~responded v =
  op ~id ~proc ~kind:Op.Read ~invoked ~responded ~result:(V.Int v) ()

let h ops = Hist.of_ops ops

let unit_tests =
  [
    tc "empty history is linearizable" (fun () ->
        check_bool "empty" true (L.check ~init Hist.empty));
    tc "sequential write;read is linearizable" (fun () ->
        check_bool "lin" true
          (L.check ~init
             (h [ w ~id:1 ~proc:1 ~invoked:1 ~responded:2 100;
                  r ~id:2 ~proc:2 ~invoked:3 ~responded:4 100 ])));
    tc "stale read after a completed write is NOT linearizable" (fun () ->
        check_bool "not lin" false
          (L.check ~init
             (h [ w ~id:1 ~proc:1 ~invoked:1 ~responded:2 100;
                  r ~id:2 ~proc:2 ~invoked:3 ~responded:4 0 ])));
    tc "stale read concurrent with the write IS linearizable" (fun () ->
        check_bool "lin" true
          (L.check ~init
             (h [ w ~id:1 ~proc:1 ~invoked:1 ~responded:5 100;
                  r ~id:2 ~proc:2 ~invoked:2 ~responded:4 0 ])));
    tc "read of a never-written value is NOT linearizable" (fun () ->
        check_bool "not lin" false
          (L.check ~init
             (h [ r ~id:1 ~proc:1 ~invoked:1 ~responded:2 999 ])));
    tc "new-old inversion between sequential reads is NOT linearizable" (fun () ->
        (* r1 sees the new value, then a later r2 (same or other proc,
           strictly after) sees the old one *)
        check_bool "not lin" false
          (L.check ~init
             (h
                [
                  w ~id:1 ~proc:1 ~invoked:1 ~responded:10 100;
                  r ~id:2 ~proc:2 ~invoked:2 ~responded:3 100;
                  r ~id:3 ~proc:2 ~invoked:4 ~responded:5 0;
                ])));
    tc "old-then-new across concurrent reads IS linearizable" (fun () ->
        check_bool "lin" true
          (L.check ~init
             (h
                [
                  w ~id:1 ~proc:1 ~invoked:1 ~responded:10 100;
                  r ~id:2 ~proc:2 ~invoked:2 ~responded:3 0;
                  r ~id:3 ~proc:2 ~invoked:4 ~responded:5 100;
                ])));
    tc "read may return a PENDING write's value" (fun () ->
        check_bool "lin" true
          (L.check ~init
             (h
                [
                  w ~id:1 ~proc:1 ~invoked:1 100 (* never responds *);
                  r ~id:2 ~proc:2 ~invoked:2 ~responded:3 100;
                ])));
    tc "pending write may also be ignored" (fun () ->
        check_bool "lin" true
          (L.check ~init
             (h
                [
                  w ~id:1 ~proc:1 ~invoked:1 100;
                  r ~id:2 ~proc:2 ~invoked:2 ~responded:3 0;
                ])));
    tc "two concurrent writes order both ways" (fun () ->
        let base =
          [ w ~id:1 ~proc:1 ~invoked:1 ~responded:10 100;
            w ~id:2 ~proc:2 ~invoked:2 ~responded:9 200 ]
        in
        check_bool "reads 100 last" true
          (L.check ~init
             (h (base @ [ r ~id:3 ~proc:3 ~invoked:11 ~responded:12 100 ])));
        check_bool "reads 200 last" true
          (L.check ~init
             (h (base @ [ r ~id:3 ~proc:3 ~invoked:11 ~responded:12 200 ])));
        (* but two sequential readers cannot disagree on the final order *)
        check_bool "contradictory readers" false
          (L.check ~init
             (h
                (base
                @ [
                    r ~id:3 ~proc:3 ~invoked:11 ~responded:12 100;
                    r ~id:4 ~proc:3 ~invoked:13 ~responded:14 200;
                    r ~id:5 ~proc:4 ~invoked:15 ~responded:16 100;
                  ]))));
    tc "witness is a valid linearization" (fun () ->
        let hist =
          h
            [
              w ~id:1 ~proc:1 ~invoked:1 ~responded:10 100;
              w ~id:2 ~proc:2 ~invoked:2 ~responded:9 200;
              r ~id:3 ~proc:3 ~invoked:3 ~responded:8 100;
              r ~id:4 ~proc:4 ~invoked:11 ~responded:12 200;
            ]
        in
        match L.witness ~init hist with
        | Some s ->
            check_bool "valid" true (Hist.Seq.is_linearization_of ~init hist s)
        | None -> Alcotest.fail "expected linearizable");
    tc "witness is None when not linearizable" (fun () ->
        check_bool "none" true
          (L.witness ~init
             (h [ r ~id:1 ~proc:1 ~invoked:1 ~responded:2 1 ])
          = None));
    tc "multi-object: per-object locality" (fun () ->
        let mixed =
          Hist.of_ops
            [
              Op.make ~id:1 ~proc:1 ~obj:"A" ~kind:(Op.Write (V.Int 1))
                ~invoked:1 ~responded:2 ();
              Op.make ~id:2 ~proc:2 ~obj:"B" ~kind:Op.Read ~invoked:3
                ~responded:4 ~result:(V.Int 0) ();
            ]
        in
        check_bool "both ok" true
          (L.check_multi ~init_of:(fun _ -> V.Int 0) mixed));
    tc "multi-object check rejected by single-object checker" (fun () ->
        let mixed =
          Hist.of_ops
            [
              Op.make ~id:1 ~proc:1 ~obj:"A" ~kind:Op.Read ~invoked:1
                ~responded:2 ~result:(V.Int 0) ();
              Op.make ~id:2 ~proc:2 ~obj:"B" ~kind:Op.Read ~invoked:3
                ~responded:4 ~result:(V.Int 0) ();
            ]
        in
        try
          ignore (L.check ~init mixed);
          Alcotest.fail "accepted multi-object history"
        with Invalid_argument _ -> ());
  ]

(* [sel]-subsequence orders of [hist]'s linearizations that extend
   [prefix]; [extends] is the yes/no form *)
let orders ?(sel = Op.is_write) hist ~prefix ~limit =
  L.orders_extending_prepped (L.prep ~init hist) ~sel ~prefix ~limit

let extends ?sel hist ~prefix = orders ?sel hist ~prefix ~limit:1 <> []

let enumerate_tests =
  [
    tc "enumerate finds both orders of concurrent writes" (fun () ->
        let hist =
          h
            [
              w ~id:1 ~proc:1 ~invoked:1 ~responded:10 100;
              w ~id:2 ~proc:2 ~invoked:2 ~responded:9 200;
            ]
        in
        let ls = L.enumerate ~init hist ~limit:100 in
        Alcotest.(check int) "two" 2 (List.length ls));
    tc "enumerate_write_orders dedups by write sequence" (fun () ->
        let hist =
          h
            [
              w ~id:1 ~proc:1 ~invoked:1 ~responded:10 100;
              w ~id:2 ~proc:2 ~invoked:2 ~responded:9 200;
              r ~id:3 ~proc:3 ~invoked:11 ~responded:12 200;
            ]
        in
        (* only one write order is consistent with the read *)
        Alcotest.(check int) "one" 1
          (List.length (orders hist ~prefix:[] ~limit:100)));
    tc "forced write prefix accepts consistent order" (fun () ->
        let hist =
          h
            [
              w ~id:1 ~proc:1 ~invoked:1 ~responded:10 100;
              w ~id:2 ~proc:2 ~invoked:2 ~responded:9 200;
            ]
        in
        check_bool "1 then 2" true (extends hist ~prefix:[ 1; 2 ]);
        check_bool "2 then 1" true (extends hist ~prefix:[ 2; 1 ]));
    tc "forced write prefix rejects contradicted order" (fun () ->
        let hist =
          h
            [
              w ~id:1 ~proc:1 ~invoked:1 ~responded:10 100;
              w ~id:2 ~proc:2 ~invoked:2 ~responded:9 200;
              r ~id:3 ~proc:3 ~invoked:11 ~responded:12 200;
            ]
        in
        (* the read of 200 forces write 2 last *)
        check_bool "2 then 1 impossible" false (extends hist ~prefix:[ 2; 1 ]);
        check_bool "1 then 2 fine" true (extends hist ~prefix:[ 1; 2 ]));
    tc "forced full prefix" (fun () ->
        let a = w ~id:1 ~proc:1 ~invoked:1 ~responded:10 100 in
        let b = r ~id:2 ~proc:2 ~invoked:2 ~responded:9 0 in
        let hist = h [ a; b ] in
        let all _ = true in
        check_bool "read first" true (extends ~sel:all hist ~prefix:[ 2; 1 ]);
        check_bool "write first breaks read" false
          (extends ~sel:all hist ~prefix:[ 1; 2 ]));
    tc "write_orders_extending" (fun () ->
        let hist =
          h
            [
              w ~id:1 ~proc:1 ~invoked:1 ~responded:10 100;
              w ~id:2 ~proc:2 ~invoked:2 ~responded:9 200;
            ]
        in
        Alcotest.(check int) "extending [1]" 1
          (List.length (orders hist ~prefix:[ 1 ] ~limit:50)));
    tc "too large raises" (fun () ->
        let ops =
          List.init 63 (fun i ->
              w ~id:(i + 1) ~proc:(i + 1) ~invoked:((i * 2) + 1)
                ~responded:((i * 2) + 2)
                (100 + i))
        in
        try
          ignore (L.check ~init (h ops));
          Alcotest.fail "accepted 63 ops"
        with L.Too_large { n; cap } ->
          Alcotest.(check int) "n carried" 63 n;
          Alcotest.(check int) "cap carried" L.max_ops cap);
  ]

(* property: histories produced by an atomic register are always accepted,
   and the generator's own witness agrees with the checker's *)
let props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"atomic histories always linearizable" ~count:150
         (Arb.atomic Gen.default_spec) (fun hist ->
           L.check ~init:Gen.default_spec.Gen.init hist));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"checker witness always validates" ~count:150
         (Arb.atomic Gen.default_spec) (fun hist ->
           match L.witness ~init:Gen.default_spec.Gen.init hist with
           | Some s ->
               Hist.Seq.is_linearization_of ~init:Gen.default_spec.Gen.init
                 hist s
           | None -> false));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"on arbitrary histories, check = witness existence" ~count:150
         (Arb.arbitrary { Gen.default_spec with n_ops = 6 })
         (fun hist ->
           L.check ~init:Gen.default_spec.Gen.init hist
           = Option.is_some (L.witness ~init:Gen.default_spec.Gen.init hist)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"non-distinct write values: atomic histories still accepted"
         ~count:100
         (Arb.atomic { Gen.default_spec with distinct_writes = false })
         (fun hist -> L.check ~init:Gen.default_spec.Gen.init hist));
  ]

let suite =
  [
    ("lincheck.unit", unit_tests);
    ("lincheck.enumerate", enumerate_tests);
    ("lincheck.props", props);
  ]

(* ----- differential oracle -------------------------------------------------------
   A brute-force reference checker: enumerate every permutation of every
   subset that contains all complete ops (pending writes optional), and
   test the three properties of Definition 2 directly via Hist.Seq.  Only
   tractable for tiny histories — which is exactly what makes it a trusted
   oracle for the DFS. *)

let rec insertions x = function
  | [] -> [ [ x ] ]
  | y :: ys as l ->
      (x :: l) :: List.map (fun r -> y :: r) (insertions x ys)

let rec permutations = function
  | [] -> [ [] ]
  | x :: xs -> List.concat_map (insertions x) (permutations xs)

let rec subsets = function
  | [] -> [ [] ]
  | x :: xs ->
      let rest = subsets xs in
      rest @ List.map (fun s -> x :: s) rest

let brute_force ~init hist =
  let ops = Hist.ops hist in
  let complete = List.filter Op.is_complete ops in
  let pending_writes =
    List.filter (fun o -> Op.is_write o && Op.is_pending o) ops
  in
  List.exists
    (fun extra ->
      List.exists
        (fun seq -> Hist.Seq.is_linearization_of ~init hist seq)
        (permutations (complete @ extra)))
    (subsets pending_writes)

let oracle_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"DFS checker agrees with the brute-force oracle (arbitrary)"
         ~count:120
         (Arb.arbitrary { Gen.default_spec with n_ops = 5; n_procs = 3 })
         (fun hist ->
           QCheck.assume (List.length (Hist.ops hist) <= 6);
           L.check ~init hist = brute_force ~init hist));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"DFS checker agrees with the oracle (repeated write values)"
         ~count:120
         (Arb.arbitrary
            { Gen.default_spec with n_ops = 5; n_procs = 3; distinct_writes = false })
         (fun hist ->
           QCheck.assume (List.length (Hist.ops hist) <= 6);
           L.check ~init hist = brute_force ~init hist));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"DFS checker agrees with the oracle (atomic histories)"
         ~count:80
         (Arb.atomic { Gen.default_spec with n_ops = 5 })
         (fun hist ->
           QCheck.assume (List.length (Hist.ops hist) <= 6);
           L.check ~init hist && brute_force ~init hist));
  ]

let suite = suite @ [ ("lincheck.oracle", oracle_tests) ]

(* ----- the int-pair memo set vs a Hashtbl oracle --------------------------------- *)

module Ipset = Linchk.Ipset

let ipset_tests =
  [
    tc "Ipset agrees with a Hashtbl set on random streams" (fun () ->
        let rand = Random.State.make [| 0x1953 |] in
        for _trial = 1 to 10 do
          let s = Ipset.create ~capacity:8 () in
          let oracle : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
          for _step = 1 to 3_000 do
            (* dense, highly regular keys, like the DFS produces: small
               masks and small cursor*nvals+vid packings (k2 may be any
               int, so the stream also exercises negatives) *)
            let k1 = Random.State.int rand 0x400 in
            let k2 = Random.State.int rand 600 - 100 in
            if Random.State.bool rand then begin
              Ipset.add s ~k1 ~k2;
              Hashtbl.replace oracle (k1, k2) ()
            end
            else
              Alcotest.(check bool) "mem agrees"
                (Hashtbl.mem oracle (k1, k2))
                (Ipset.mem s ~k1 ~k2)
          done;
          Alcotest.(check int) "cardinality agrees" (Hashtbl.length oracle)
            (Ipset.length s)
        done);
    tc "Ipset add is idempotent" (fun () ->
        let s = Ipset.create () in
        Ipset.add s ~k1:5 ~k2:7;
        Ipset.add s ~k1:5 ~k2:7;
        Alcotest.(check int) "size" 1 (Ipset.length s);
        Alcotest.(check bool) "mem" true (Ipset.mem s ~k1:5 ~k2:7);
        Alcotest.(check bool) "near miss k1" false (Ipset.mem s ~k1:6 ~k2:7);
        Alcotest.(check bool) "near miss k2" false (Ipset.mem s ~k1:5 ~k2:8));
    tc "Ipset mem and add allocate nothing while the set does not grow"
      (fun () ->
        let s = Ipset.create ~capacity:4096 () in
        let k = ref 0 in
        Alloc.at_most "add per call" 0.01
          (Alloc.words_per_call (fun () ->
               incr k;
               Ipset.add s ~k1:!k ~k2:(!k * 7)));
        Alcotest.(check int) "the set did not grow" 0 (Ipset.stats s).Ipset.grows;
        Alloc.at_most "mem per call" 0.01
          (Alloc.words_per_call (fun () ->
               incr k;
               Ipset.mem s ~k1:(!k land 2047) ~k2:7)));
    tc "Ipset clear empties the set and keeps its capacity" (fun () ->
        let s = Ipset.create ~capacity:8 () in
        for i = 0 to 99 do
          Ipset.add s ~k1:i ~k2:(-i)
        done;
        let capacity = Ipset.capacity s in
        Ipset.clear s;
        Alcotest.(check int) "empty" 0 (Ipset.length s);
        Alcotest.(check int) "capacity kept" capacity (Ipset.capacity s);
        Alcotest.(check bool) "no pair left" false
          (List.exists (fun i -> Ipset.mem s ~k1:i ~k2:(-i)) (List.init 100 Fun.id));
        Ipset.add s ~k1:5 ~k2:(-5);
        Alcotest.(check bool) "usable again" true (Ipset.mem s ~k1:5 ~k2:(-5));
        Alcotest.(check int) "one pair" 1 (Ipset.length s));
    tc "Ipset rejects negative first components" (fun () ->
        let s = Ipset.create () in
        (try
           Ipset.add s ~k1:(-1) ~k2:0;
           Alcotest.fail "add accepted k1 < 0"
         with Invalid_argument _ -> ());
        try
          ignore (Ipset.mem s ~k1:(-1) ~k2:0);
          Alcotest.fail "mem accepted k1 < 0"
        with Invalid_argument _ -> ());
  ]

(* ----- interned decide vs the boxed-key reference -------------------------------
   A line-for-line reference of the pre-interning DFS: same candidate
   order, but the register value is carried as a V.t compared with
   V.equal and the failure memo is a Hashtbl keyed by the boxed
   (mask, cursor, value) triple.  Witness equality on seeded random
   histories pins that value interning changed neither the verdicts nor
   the witnesses the search returns. *)

let ref_witness ~init hist =
  let ops =
    Hist.ops hist
    |> List.filter (fun (o : Op.t) -> Op.is_write o || Op.is_complete o)
    |> Array.of_list
  in
  let n = Array.length ops in
  let pred = Array.make n 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if j <> i && Op.precedes ops.(j) ops.(i) then
        pred.(i) <- pred.(i) lor (1 lsl j)
    done
  done;
  let complete_mask = ref 0 in
  Array.iteri
    (fun i o -> if Op.is_complete o then complete_mask := !complete_mask lor (1 lsl i))
    ops;
  let complete_mask = !complete_mask in
  let failed = Hashtbl.create 64 in
  let rec go mask v path =
    if complete_mask land mask = complete_mask then Some (List.rev path)
    else if Hashtbl.mem failed (mask, 0, v) then None
    else begin
      let result = ref None in
      let i = ref 0 in
      while Option.is_none !result && !i < n do
        let idx = !i in
        incr i;
        if mask land (1 lsl idx) = 0 && pred.(idx) land mask = pred.(idx)
        then begin
          let o = ops.(idx) in
          match o.kind with
          | Op.Write wv -> (
              match go (mask lor (1 lsl idx)) wv (o :: path) with
              | Some _ as r -> result := r
              | None -> ())
          | Op.Read -> (
              match o.result with
              | Some rv when V.equal rv v -> (
                  match go (mask lor (1 lsl idx)) v (o :: path) with
                  | Some _ as r -> result := r
                  | None -> ())
              | _ -> ())
        end
      done;
      if Option.is_none !result then Hashtbl.add failed (mask, 0, v) ();
      !result
    end
  in
  go 0 init []

let ids_of ops = List.map (fun (o : Op.t) -> o.id) ops

let witness_equiv_tests =
  [
    tc "interned decide = boxed reference on 200 seeded histories" (fun () ->
        let rand = Random.State.make [| 0xC0FFEE |] in
        for i = 0 to 199 do
          let hist =
            match i mod 3 with
            | 0 ->
                Gen.atomic_history
                  { Gen.default_spec with n_ops = 10; n_procs = 4 }
                  rand
            | 1 ->
                Gen.arbitrary_history
                  { Gen.default_spec with n_ops = 9; n_procs = 3 }
                  rand
            | _ ->
                (* repeated write values stress the interning table *)
                Gen.arbitrary_history
                  {
                    Gen.default_spec with
                    n_ops = 9;
                    n_procs = 3;
                    distinct_writes = false;
                  }
                  rand
          in
          match (ref_witness ~init hist, L.witness ~init hist) with
          | None, None -> ()
          | Some a, Some b ->
              Alcotest.(check (list int))
                (Printf.sprintf "witness %d identical" i)
                (ids_of a) (ids_of b)
          | Some _, None -> Alcotest.failf "history %d: verdict flipped to no" i
          | None, Some _ ->
              Alcotest.failf "history %d: verdict flipped to yes" i
        done);
  ]

let suite =
  suite
  @ [
      ("lincheck.ipset", ipset_tests);
      ("lincheck.interning", witness_equiv_tests);
    ]

(* ----- allocation ceiling ------------------------------------------------------ *)

(* 39.1 minor words per DFS state on OCaml 5.1.1 (44.9 while an [Ipset]
   probe returned a tuple). *)
let alloc_tests =
  [
    tc "witness allocates at most 59 words per DFS state" (fun () ->
        let hs = Alloc.decide_histories () in
        Alloc.at_most "witness per DFS state" 59.
          (Alloc.words_per ~counter:"linchk.states" (fun m ->
               List.iter
                 (fun h -> ignore (L.witness ~metrics:m ~init h))
                 hs)));
  ]

let suite = suite @ [ ("lincheck.alloc", alloc_tests) ]
