(* The parallel checker stack: the sharded failure memo
   (Linchk.Ipset.Sharded), the sequential budget that keeps small searches
   off the pool, cancellation of beaten subtree tasks, and the
   determinism contract — parallel verdicts and witnesses byte-identical
   to sequential at every [jobs] (DESIGN.md §14).  The runner itself,
   Simkit.Pool, is tested in test_pool.ml; the [parcheck.steal] group
   below keeps the runner contract the checkers' parallel searches rely
   on, which the work-stealing runner they used before Pool also met. *)

module V = Core.Value
module Op = Core.Op
module Hist = Core.Hist
module Gen = Core.Histgen
module L = Core.Lincheck
module T = Core.Treecheck
module Pool = Core.Pool
module Ipset = Core.Ipset
module Chaos = Core.Chaos

let tc name f = Alcotest.test_case name `Quick f
let tcs name f = Alcotest.test_case name `Slow f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let init = V.Int 0
let ids_of ops = List.map (fun (o : Op.t) -> o.id) ops

(* ----- runner contract ---------------------------------------------------- *)

let steal_tests =
  [
    tc "every task runs exactly once (jobs 4, n 100)" (fun () ->
        let n = 100 in
        let ran = Array.init n (fun _ -> Atomic.make 0) in
        let out = Pool.map ~jobs:4 n (fun i -> Atomic.incr ran.(i); i) in
        check_int "results" n (Array.length out);
        Array.iteri
          (fun i c ->
            check_int (Printf.sprintf "task %d ran once" i) 1 (Atomic.get c))
          ran;
        check_bool "result i at index i" true (out = Array.init n Fun.id));
    tc "tasks run on at most jobs domains" (fun () ->
        let doms =
          Pool.map ~jobs:4 64 (fun _ -> (Domain.self () :> int))
          |> Array.to_list |> List.sort_uniq compare
        in
        check_bool "at least one domain" true (doms <> []);
        check_bool "at most 4 domains" true (List.length doms <= 4));
    tc "n = 0 and n = 1 degenerate cleanly" (fun () ->
        Pool.iter ~jobs:4 0 (fun _ -> assert false);
        let hit = ref 0 in
        let on =
          Pool.map ~jobs:4 1 (fun i ->
              assert (i = 0);
              incr hit;
              Domain.self ())
        in
        check_int "ran once" 1 !hit;
        check_bool "on the caller" true (on.(0) = Domain.self ()));
    tc "jobs 1 runs in index order" (fun () ->
        let order = ref [] in
        Pool.iter ~jobs:1 10 (fun i -> order := i :: !order);
        check_bool "ascending" true (List.rev !order = List.init 10 Fun.id));
    tc "a failing task's exception is re-raised" (fun () ->
        match Pool.iter ~jobs:4 50 (fun i -> if i = 5 then failwith "boom")
        with
        | () -> Alcotest.fail "exception swallowed"
        | exception Failure msg -> Alcotest.(check string) "exn" "boom" msg);
    tc "sequential fallback re-raises the lowest-index failure" (fun () ->
        match
          Pool.iter ~jobs:1 50 (fun i ->
              if i mod 7 = 3 then failwith (string_of_int i))
        with
        | () -> Alcotest.fail "exception swallowed"
        | exception Failure msg -> Alcotest.(check string) "exn" "3" msg);
  ]

(* ----- sharded Ipset ------------------------------------------------------ *)

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
    tc "sharded set agrees with the plain set on 4000 random pairs"
      (fun () ->
        let rand = Random.State.make [| 0x5EED |] in
        let plain = Ipset.create () in
        let sharded = Ipset.Sharded.create ~shards:8 ~capacity:16 () in
        for _ = 1 to 4000 do
          let k1 = Random.State.int rand 700
          and k2 = Random.State.int rand 700 - 350 in
          if Random.State.bool rand then begin
            Ipset.add plain ~k1 ~k2;
            Ipset.Sharded.add sharded ~k1 ~k2
          end
          else
            check_bool "membership agrees" true
              (Ipset.mem plain ~k1 ~k2 = Ipset.Sharded.mem sharded ~k1 ~k2)
        done;
        check_int "sizes agree" (Ipset.length plain)
          (Ipset.Sharded.length sharded);
        let st = Ipset.Sharded.stats sharded in
        check_int "stats.size" (Ipset.Sharded.length sharded) st.Ipset.size;
        check_bool "grew" true (st.Ipset.grows >= 1);
        let occ = Ipset.Sharded.shard_occupancy sharded in
        check_int "one occupancy per shard"
          (Ipset.Sharded.shards sharded)
          (Array.length occ);
        Array.iter
          (fun o -> check_bool "shard occupancy sane" true (o >= 0. && o <= 0.5))
          occ);
    tc "concurrent adds from 4 domains are all found afterwards" (fun () ->
        let s = Ipset.Sharded.create ~shards:4 ~capacity:8 () in
        let per = 500 in
        let adders =
          List.init 4 (fun d ->
              Domain.spawn (fun () ->
                  for j = 0 to per - 1 do
                    Ipset.Sharded.add s ~k1:((d * per) + j) ~k2:(d lxor j)
                  done))
        in
        List.iter Domain.join adders;
        for d = 0 to 3 do
          for j = 0 to per - 1 do
            check_bool "present" true
              (Ipset.Sharded.mem s ~k1:((d * per) + j) ~k2:(d lxor j))
          done
        done;
        (* distinct keys: the size undercount races documented on
           [length] only involve rehash-copied duplicates *)
        check_bool "length <= true count" true
          (Ipset.Sharded.length s <= 4 * per));
  ]

(* ----- decide: parallel vs sequential oracle ----------------------------- *)

let spec_of i =
  match i mod 3 with
  | 0 -> (`Atomic, { Gen.default_spec with Gen.n_ops = 10; n_procs = 4 })
  | 1 -> (`Arbitrary, { Gen.default_spec with Gen.n_ops = 9; n_procs = 3 })
  | _ ->
      ( `Arbitrary,
        {
          Gen.default_spec with
          Gen.n_ops = 9;
          n_procs = 3;
          distinct_writes = false;
        } )

let gen_hist rand i =
  match spec_of i with
  | `Atomic, spec -> Gen.atomic_history spec rand
  | `Arbitrary, spec -> Gen.arbitrary_history spec rand

let decide_oracle_tests =
  [
    tc "jobs 2 and 4 match sequential on 200 seeded histories" (fun () ->
        let rand = Random.State.make [| 0xDECAF |] in
        let yes = ref 0 and no = ref 0 in
        for i = 0 to 199 do
          let hist = gen_hist rand i in
          let m1 = Core.Metrics.create () in
          let seq = L.witness ~metrics:m1 ~init hist in
          (match seq with Some _ -> incr yes | None -> incr no);
          List.iter
            (fun jobs ->
              (* every one of these searches ends within the sequential
                 budget, so [jobs] > 1 runs exactly the [-j 1] search: no
                 task, and the same state count *)
              let m = Core.Metrics.create () in
              let par = L.witness ~metrics:m ~jobs ~init hist in
              check_int
                (Printf.sprintf "history %d: no task at jobs %d" i jobs)
                0
                (Core.Metrics.counter m "linchk.par.tasks");
              check_int
                (Printf.sprintf "history %d: states at jobs %d" i jobs)
                (Core.Metrics.counter m1 "linchk.states")
                (Core.Metrics.counter m "linchk.states");
              match (seq, par) with
              | None, None -> ()
              | Some a, Some b ->
                  Alcotest.(check (list int))
                    (Printf.sprintf "witness %d identical at jobs %d" i jobs)
                    (ids_of a) (ids_of b)
              | Some _, None ->
                  Alcotest.failf "history %d: jobs %d flipped to no" i jobs
              | None, Some _ ->
                  Alcotest.failf "history %d: jobs %d flipped to yes" i jobs)
            [ 2; 4 ]
        done;
        (* the corpus must exercise both verdicts to mean anything *)
        check_bool "some linearizable" true (!yes > 0);
        check_bool "some non-linearizable" true (!no > 0));
  ]

(* ----- cancellation ------------------------------------------------------- *)

(* k concurrent writes of distinct values 1..k plus a later read of
   [last]: every linearization must place the write of [last] last among
   the writes (none exists for [last] = 0, the initial value).  With
   [last] = 1 the lex-first frontier task (write-of-1 first) is a large
   guaranteed-failing subtree while the lex-least success lives in task
   1 — later tasks observe the winner and cancel mid-subtree. *)
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

let cancel_tests =
  [
    tc "losing subtasks are cancelled, witness still sequential" (fun () ->
        let h = writes_then_read 12 ~last:1 in
        let seq = L.witness ~init h in
        let expect =
          (* writes 2..12 in id order, then write 1, then the read *)
          List.init 11 (fun i -> i + 2) @ [ 1; 13 ]
        in
        (match seq with
        | Some ops ->
            Alcotest.(check (list int)) "lex-least witness" expect (ids_of ops)
        | None -> Alcotest.fail "sequential verdict flipped");
        List.iter
          (fun jobs ->
            (* whether a losing subtree is still in flight when the
               winner posts is a race against the OS scheduler: a worker
               that finishes its whole task before the cancel signal
               lands records nothing.  Accumulate into one metrics sink
               across a few attempts — the verdict and witness are
               checked every time, only the cancellation count is
               allowed to need more than one try. *)
            let m = Core.Metrics.create () in
            let attempts = 20 in
            let rec go i =
              (match L.witness ~metrics:m ~jobs ~init h with
              | Some ops ->
                  Alcotest.(check (list int))
                    (Printf.sprintf "witness at jobs %d" jobs)
                    expect (ids_of ops)
              | None -> Alcotest.failf "jobs %d verdict flipped" jobs);
              if Core.Metrics.counter m "linchk.par.cancelled" < 1 && i < attempts
              then go (i + 1)
            in
            go 1;
            check_bool
              (Printf.sprintf "tasks spawned at jobs %d" jobs)
              true
              (Core.Metrics.counter m "linchk.par.tasks" > 1);
            check_bool
              (Printf.sprintf "cancellations observed at jobs %d" jobs)
              true
              (Core.Metrics.counter m "linchk.par.cancelled" >= 1);
            check_bool "memo occupancy gauge set" true
              (Core.Metrics.gauge m "linchk.par.memo_occupancy" <> None))
          [ 2; 4 ]);
  ]

let budget_tests =
  [
    tc "searches past the budget reach the pool, witness still sequential"
      (fun () ->
        (* 9,282 to 56,411 states at -j 1: each outgrows the 4,096-state
           sequential budget and restarts in the parallel driver *)
        List.iter
          (fun (k, last) ->
            let h = writes_then_read k ~last in
            let seq = Option.map ids_of (L.witness ~init h) in
            List.iter
              (fun jobs ->
                let m = Core.Metrics.create () in
                let par =
                  Option.map ids_of (L.witness ~metrics:m ~jobs ~init h)
                in
                let name =
                  Printf.sprintf "k %d, last %d, jobs %d" k last jobs
                in
                Alcotest.(check (option (list int)))
                  (name ^ ": witness") seq par;
                check_bool (name ^ ": tasks") true
                  (Core.Metrics.counter m "linchk.par.tasks" > 0);
                (* the budget's states count too *)
                check_bool (name ^ ": states") true
                  (Core.Metrics.counter m "linchk.states" > 4096))
              [ 2; 4 ])
          [ (10, 0); (10, 1); (11, 0); (11, 1); (11, 2); (12, 1); (12, 2) ]);
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

(* ----- chaos with a parallel checker -------------------------------------- *)

let chaos_tests =
  [
    tcs "chaos report identical with check_jobs 2" (fun () ->
        let r1 = Chaos.search ~check_jobs:1 ~seed:42L ~budget:16 () in
        let r2 = Chaos.search ~check_jobs:2 ~seed:42L ~budget:16 () in
        Alcotest.(check string)
          "byte-identical"
          (Obs.Json.to_string (Chaos.report_json r1))
          (Obs.Json.to_string (Chaos.report_json r2)));
  ]

let suite =
  [
    ("parcheck.steal", steal_tests);
    ("parcheck.ipset", ipset_tests);
    ("parcheck.decide", decide_oracle_tests);
    ("parcheck.cancel", cancel_tests);
    ("parcheck.budget", budget_tests);
    ("parcheck.tree", tree_oracle_tests);
    ("parcheck.chaos", chaos_tests);
  ]
