(* Tests for Algorithm 3 — the constructive, on-line write
   strong-linearization function for Algorithm 2's histories. *)

module V = Core.Value
module Op = Core.Op
module Hist = Core.Hist
module Sched = Core.Sched
module Trace = Core.Trace
module Alg2 = Core.Wsl_register
module A3 = Core.Wsl_function

let tc name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let init = V.Int 0

(* run a scripted or random Alg2 workload and return its trace *)
let run_workload ~n ~seed ~ops =
  let sched = Sched.create ~seed () in
  let r = Alg2.create ~sched ~name:"R" ~n ~init:0 in
  List.iteri
    (fun i prog ->
      Sched.spawn sched ~pid:(i + 1) (fun () -> prog r))
    ops;
  let rng = Core.Rng.create (Int64.add seed 5L) in
  ignore (Sched.run sched ~policy:(Sched.random_policy rng) ~max_steps:5000);
  Sched.trace sched

let unit_tests =
  [
    tc "empty trace linearizes to nothing" (fun () ->
        let tr = Trace.create () in
        Alcotest.(check int) "empty" 0 (List.length (A3.linearize tr ~obj:"R")));
    tc "single write linearizes to itself" (fun () ->
        let tr =
          run_workload ~n:2 ~seed:1L
            ~ops:[ (fun r -> Alg2.write r ~proc:1 100); (fun _ -> ()) ]
        in
        match A3.linearize tr ~obj:"R" with
        | [ o ] -> check_bool "write" true (Op.is_write o)
        | l -> Alcotest.fail (Printf.sprintf "expected 1 op, got %d" (List.length l)));
    tc "reads of the initial value are prepended" (fun () ->
        let tr =
          run_workload ~n:2 ~seed:2L
            ~ops:
              [
                (fun r -> ignore (Alg2.read r ~proc:1));
                (fun r -> Alg2.write r ~proc:2 100);
              ]
        in
        let s = A3.linearize tr ~obj:"R" in
        (* if the read returned 0 it must precede the write in S *)
        let h = Trace.history tr in
        let rd = List.find Op.is_read (Hist.ops h) in
        (match rd.Op.result with
        | Some (V.Int 0) ->
            check_bool "read first" true (Op.is_read (List.hd s))
        | _ ->
            (* read saw the write: it must come after it *)
            check_bool "write first" true (Op.is_write (List.hd s)));
        check_bool "valid" true (Hist.Seq.is_linearization_of ~init h s));
    tc "write_order grows monotonically in time" (fun () ->
        let tr =
          run_workload ~n:3 ~seed:3L
            ~ops:
              [
                (fun r -> Alg2.write r ~proc:1 101; Alg2.write r ~proc:1 102);
                (fun r -> Alg2.write r ~proc:2 201);
                (fun r -> ignore (Alg2.read r ~proc:3));
              ]
        in
        let rec is_prefix p q =
          match (p, q) with
          | [], _ -> true
          | _, [] -> false
          | x :: p', y :: q' -> x = y && is_prefix p' q'
        in
        let prev = ref [] in
        for t = 0 to Trace.now tr do
          let wo = A3.write_order tr ~obj:"R" ~time:t in
          check_bool "monotone" true (is_prefix !prev wo);
          prev := wo
        done);
    tc "linearize_upto excludes future operations" (fun () ->
        let tr =
          run_workload ~n:2 ~seed:4L
            ~ops:
              [
                (fun r -> Alg2.write r ~proc:1 100);
                (fun r -> Alg2.write r ~proc:2 200);
              ]
        in
        let early = A3.linearize_upto tr ~obj:"R" ~time:0 in
        Alcotest.(check int) "nothing yet" 0 (List.length early);
        let full = A3.linearize tr ~obj:"R" in
        Alcotest.(check int) "both eventually" 2 (List.length full));
    tc "fig3: B_i computed from partial timestamps" (fun () ->
        let f3 = Core.Scenario.fig3 () in
        (* at w2's completion, exactly w3 and w2 are linearized, w1 is not *)
        Alcotest.(check int) "two committed" 2
          (List.length f3.Core.Scenario.ws_at_t);
        check_bool "w1 deferred" true
          (not (List.mem f3.Core.Scenario.w1 f3.Core.Scenario.ws_at_t)));
  ]

let multi_register_tests =
  [
    tc "two Algorithm-2 registers in one run: per-object projection" (fun () ->
        (* Algorithm 3 must consume only the named register's annotations *)
        let sched = Sched.create ~seed:9L () in
        let ra = Alg2.create ~sched ~name:"A" ~n:2 ~init:0 in
        let rb = Alg2.create ~sched ~name:"B" ~n:2 ~init:0 in
        Sched.spawn sched ~pid:1 (fun () ->
            Alg2.write ra ~proc:1 11;
            Alg2.write rb ~proc:1 21);
        Sched.spawn sched ~pid:2 (fun () ->
            ignore (Alg2.read rb ~proc:2);
            ignore (Alg2.read ra ~proc:2));
        let rng = Core.Rng.create 10L in
        ignore
          (Sched.run sched ~policy:(Sched.random_policy rng) ~max_steps:2000);
        let tr = Sched.trace sched in
        let full = Trace.history tr in
        List.iter
          (fun obj ->
            let s = A3.linearize tr ~obj in
            let hobj = Hist.project full ~obj in
            check_bool
              (Printf.sprintf "linearization of %s valid" obj)
              true
              (Hist.Seq.is_linearization_of ~init hobj s);
            check_bool
              (Printf.sprintf "%s ops only" obj)
              true
              (List.for_all (fun (o : Op.t) -> String.equal o.obj obj) s))
          [ "A"; "B" ]);
    tc "a pending write that published is linearized; one that did not is not"
      (fun () ->
        let sched = Sched.create ~seed:11L () in
        let r = Alg2.create ~sched ~name:"R" ~n:2 ~init:0 in
        Sched.spawn sched ~pid:1 (fun () -> Alg2.write r ~proc:1 11);
        Sched.spawn sched ~pid:2 (fun () -> Alg2.write r ~proc:2 22);
        (* p1 publishes (invoke + 2 reads + publish = 4 steps) but never
           responds; p2 stops after its invocation *)
        for _ = 1 to 4 do
          ignore (Sched.step sched ~pid:1)
        done;
        ignore (Sched.step sched ~pid:2);
        let s = A3.linearize (Sched.trace sched) ~obj:"R" in
        Alcotest.(check int) "only the published write" 1 (List.length s));
  ]

let props =
  let seed_arb =
    QCheck.make
      ~print:Int64.to_string
      QCheck.Gen.(map Int64.of_int (int_bound 1_000_000))
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"(L): output is a linearization, any schedule"
         ~count:40 seed_arb (fun seed ->
           let run =
             Core.Scenario.random_alg2_run ~n:3 ~writes_per_proc:2
               ~reads_per_proc:1 ~seed ()
           in
           QCheck.assume run.Core.Scenario.completed;
           let s = A3.linearize run.Core.Scenario.trace ~obj:"R" in
           Hist.Seq.is_linearization_of ~init run.Core.Scenario.history s));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"(P): write order monotone over every prefix"
         ~count:25 seed_arb (fun seed ->
           let run =
             Core.Scenario.random_alg2_run ~n:3 ~writes_per_proc:2
               ~reads_per_proc:1 ~seed ()
           in
           QCheck.assume run.Core.Scenario.completed;
           Core.Scenario.check_alg2_run run = Ok ()));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"agreement: Algorithm 3's write order is one the tree checker \
                accepts"
         ~count:10 seed_arb (fun seed ->
           let run =
             Core.Scenario.random_alg2_run ~n:2 ~writes_per_proc:2
               ~reads_per_proc:1 ~seed ()
           in
           QCheck.assume run.Core.Scenario.completed;
           (* the final write order must extend to a full linearization *)
           let wo = A3.write_order run.Core.Scenario.trace ~obj:"R" ~time:max_int in
           Core.Lincheck.orders_extending_prepped
             (Core.Lincheck.prep ~init run.Core.Scenario.history)
             ~sel:Op.is_write ~prefix:wo ~limit:1
           <> []));
  ]

let suite =
  [
    ("alg3.unit", unit_tests);
    ("alg3.multi", multi_register_tests);
    ("alg3.props", props);
  ]
