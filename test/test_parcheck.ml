(* The Simkit.Pool runner contract that the run batteries rely on, the
   Ipset failure memo, and the determinism of the checker searches, which
   are sequential at every [jobs] (DESIGN.md §14).  The concurrent-write
   families are the largest searches in the suite (9,282 to 56,411 DFS
   states), and their state counts are pinned exactly.  Pool itself is
   tested in test_pool.ml. *)

module V = Core.Value
module Op = Core.Op
module Hist = Core.Hist
module Gen = Core.Histgen
module L = Core.Lincheck
module T = Core.Treecheck
module Pool = Core.Pool
module Ipset = Core.Ipset

let tc name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let init = V.Int 0
let ids_of ops = List.map (fun (o : Op.t) -> o.id) ops

(* ----- runner contract ---------------------------------------------------- *)

(* Pool's one entry point, its results collected into an array *)
let map ~jobs n f =
  Pool.fold_runs ~jobs ~metrics:(Obs.Metrics.create ()) n ~init:[]
    ~fold:(fun acc v -> v :: acc)
    (fun ~metrics:_ i -> f i)
  |> List.rev |> Array.of_list

let iter ~jobs n f = ignore (map ~jobs n f : unit array)

let steal_tests =
  [
    tc "every task runs exactly once (jobs 4, n 100)" (fun () ->
        let n = 100 in
        let ran = Array.init n (fun _ -> Atomic.make 0) in
        let out = map ~jobs:4 n (fun i -> Atomic.incr ran.(i); i) in
        check_int "results" n (Array.length out);
        Array.iteri
          (fun i c ->
            check_int (Printf.sprintf "task %d ran once" i) 1 (Atomic.get c))
          ran;
        check_bool "result i at index i" true (out = Array.init n Fun.id));
    tc "tasks run on at most jobs domains" (fun () ->
        let doms =
          map ~jobs:4 64 (fun _ -> (Domain.self () :> int))
          |> Array.to_list |> List.sort_uniq compare
        in
        check_bool "at least one domain" true (doms <> []);
        check_bool "at most 4 domains" true (List.length doms <= 4));
    tc "n = 0 and n = 1 degenerate cleanly" (fun () ->
        iter ~jobs:4 0 (fun _ -> assert false);
        let hit = ref 0 in
        let on =
          map ~jobs:4 1 (fun i ->
              assert (i = 0);
              incr hit;
              Domain.self ())
        in
        check_int "ran once" 1 !hit;
        check_bool "on the caller" true (on.(0) = Domain.self ()));
    tc "jobs 1 runs in index order" (fun () ->
        let order = ref [] in
        iter ~jobs:1 10 (fun i -> order := i :: !order);
        check_bool "ascending" true (List.rev !order = List.init 10 Fun.id));
    tc "a failing task's exception is re-raised" (fun () ->
        match iter ~jobs:4 50 (fun i -> if i = 5 then failwith "boom")
        with
        | () -> Alcotest.fail "exception swallowed"
        | exception Failure msg -> Alcotest.(check string) "exn" "boom" msg);
    tc "sequential fallback re-raises the lowest-index failure" (fun () ->
        match
          iter ~jobs:1 50 (fun i ->
              if i mod 7 = 3 then failwith (string_of_int i))
        with
        | () -> Alcotest.fail "exception swallowed"
        | exception Failure msg -> Alcotest.(check string) "exn" "3" msg);
  ]

(* ----- Ipset ---------------------------------------------------------------- *)

let ipset_tests =
  [
    tc "plain set reports size/capacity/occupancy/grows" (fun () ->
        let s = Ipset.create ~capacity:8 () in
        for i = 0 to 19 do
          Ipset.add s ~k1:i ~k2:(i * i)
        done;
        let st = Ipset.stats s in
        check_int "size" 20 st.Ipset.size;
        check_int "size = length" (Ipset.length s) st.Ipset.size;
        check_int "capacity" (Ipset.capacity s) st.Ipset.capacity;
        check_bool "grew past 8 slots" true (st.Ipset.grows >= 1);
        check_bool "occupancy in (0, 0.5]" true
          (st.Ipset.occupancy > 0. && st.Ipset.occupancy <= 0.5);
        check_bool "occupancy accessor agrees" true
          (Ipset.occupancy s = st.Ipset.occupancy));
  ]

(* ----- concurrent-write families ------------------------------------------ *)

(* k concurrent writes of distinct values 1..k plus a later read of
   [last]: every linearization must place the write of [last] last among
   the writes (none exists for [last] = 0, the initial value).  The DFS
   tries writes in id order, so for [last] >= 1 it first exhausts the
   subtrees that place the write of [last] early. *)
let writes_then_read k ~last =
  let ops =
    List.init k (fun i ->
        Op.make ~id:(i + 1) ~proc:(i + 1) ~obj:"R"
          ~kind:(Op.Write (V.Int (i + 1)))
          ~invoked:i
          ~responded:(100 + i)
          ())
    @ [
        Op.make ~id:(k + 1) ~proc:1 ~obj:"R" ~kind:Op.Read ~invoked:300
          ~responded:301 ~result:(V.Int last) ();
      ]
  in
  Hist.of_ops ops

(* The lex-least witness: the other writes in id order, then the write
   of [last], then the read. *)
let lex_least k ~last =
  if last = 0 then None
  else
    Some
      (List.filter (( <> ) last) (List.init k (fun i -> i + 1))
      @ [ last; k + 1 ])

let cancel_tests =
  [
    tc "lex-least witness of twelve writes and a read" (fun () ->
        let h = writes_then_read 12 ~last:1 in
        let expect =
          (* writes 2..12 in id order, then write 1, then the read *)
          List.init 11 (fun i -> i + 2) @ [ 1; 13 ]
        in
        match L.witness ~init h with
        | Some ops ->
            Alcotest.(check (list int)) "lex-least witness" expect (ids_of ops)
        | None -> Alcotest.fail "verdict flipped");
  ]

let budget_tests =
  [
    tc "concurrent-write families: verdicts and exact states" (fun () ->
        List.iter
          (fun (k, last, states) ->
            let m = Core.Metrics.create () in
            let h = writes_then_read k ~last in
            let w = Option.map ids_of (L.witness ~metrics:m ~init h) in
            let name = Printf.sprintf "k %d, last %d" k last in
            Alcotest.(check (option (list int)))
              (name ^ ": witness") (lex_least k ~last) w;
            check_int (name ^ ": states") states
              (Core.Metrics.counter m "linchk.states"))
          [
            (10, 0, 23_051);
            (10, 1, 9_282);
            (11, 0, 56_332);
            (11, 1, 23_118);
            (11, 2, 9_283);
            (12, 1, 56_411);
            (12, 2, 23_119);
          ]);
  ]

(* ----- treecheck: [jobs] changes nothing ---------------------------------- *)

let op ?responded ?result ~id ~proc ~kind ~invoked () =
  Op.make ~id ~proc ~obj:"R" ~kind ~invoked ?responded ?result ()

let w ?responded ~id ~proc ~invoked v =
  op ~id ~proc ~kind:(Op.Write (V.Int v)) ~invoked ?responded ()

let r ~id ~proc ~invoked ~responded v =
  op ~id ~proc ~kind:Op.Read ~invoked ~responded ~result:(V.Int v) ()

let orders_of assignments = List.map snd assignments

let tree_oracle_tests =
  [
    tc "prefix-chain trees match sequential at jobs 2 and 4 (40 seeded)"
      (fun () ->
        let rand = Random.State.make [| 0x7EA7 |] in
        for i = 0 to 39 do
          let spec = { Gen.default_spec with Gen.n_ops = 8; n_procs = 3 } in
          let hist =
            if i mod 2 = 0 then Gen.atomic_history spec rand
            else Gen.arbitrary_history spec rand
          in
          let tree = T.of_prefixes hist in
          let seq = T.write_strong_witness ~init tree in
          List.iter
            (fun jobs ->
              match (seq, T.write_strong_witness ~jobs ~init tree) with
              | None, None -> ()
              | Some a, Some b ->
                  check_bool
                    (Printf.sprintf "tree %d orders identical at jobs %d" i
                       jobs)
                    true
                    (orders_of a = orders_of b)
              | _ -> Alcotest.failf "tree %d: jobs %d flipped the verdict" i jobs)
            [ 2; 4 ]
        done);
    tc "branching refutation (Thm-13 shape) refuted at every jobs" (fun () ->
        let w1 = w ~id:1 ~proc:1 ~invoked:1 100 in
        let w2 = w ~id:2 ~proc:2 ~invoked:2 ~responded:5 200 in
        let g = Hist.of_ops [ w1; w2 ] in
        let h1 =
          Hist.of_ops
            [
              { w1 with Op.responded = Some 7 };
              w2;
              r ~id:3 ~proc:3 ~invoked:8 ~responded:9 200;
            ]
        in
        let h2 =
          Hist.of_ops
            [
              { w1 with Op.responded = Some 7 };
              w2;
              r ~id:3 ~proc:3 ~invoked:8 ~responded:9 100;
            ]
        in
        let tree = T.node g [ T.node h1 []; T.node h2 [] ] in
        List.iter
          (fun jobs ->
            check_bool
              (Printf.sprintf "refuted at jobs %d" jobs)
              false
              (T.write_strong ~jobs ~init tree))
          [ 1; 2; 4 ]);
    tc "satisfiable branching tree: identical witness at every jobs"
      (fun () ->
        let w1 = w ~id:1 ~proc:1 ~invoked:1 ~responded:3 100 in
        let w2 = w ~id:2 ~proc:2 ~invoked:4 ~responded:6 200 in
        let g = Hist.of_ops [ w1; w2 ] in
        let h1 =
          Hist.of_ops [ w1; w2; r ~id:3 ~proc:3 ~invoked:8 ~responded:9 200 ]
        in
        let h2 =
          Hist.of_ops [ w1; w2; w ~id:3 ~proc:3 ~invoked:8 ~responded:9 300 ]
        in
        let tree = T.node g [ T.node h1 []; T.node h2 [] ] in
        match T.write_strong_witness ~init tree with
        | None -> Alcotest.fail "sequential verdict flipped"
        | Some seq ->
            List.iter
              (fun jobs ->
                match T.write_strong_witness ~jobs ~init tree with
                | Some par ->
                    check_bool
                      (Printf.sprintf "orders at jobs %d" jobs)
                      true
                      (orders_of par = orders_of seq)
                | None -> Alcotest.failf "jobs %d flipped the verdict" jobs)
              [ 2; 4 ]);
  ]

let suite =
  [
    ("parcheck.steal", steal_tests);
    ("parcheck.ipset", ipset_tests);
    ("parcheck.cancel", cancel_tests);
    ("parcheck.budget", budget_tests);
    ("parcheck.tree", tree_oracle_tests);
  ]
