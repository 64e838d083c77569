(* Tests for the multi-writer ABD register and its non-WSL counterexample
   (Figure 4 transposed to message passing). *)

module V = Core.Value
module Sched = Core.Sched
module Net = Core.Net
module Mw = Core.Mwabd
module Runs = Core.Abd_runs

let tc name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let basic_tests =
  [
    tc "any node can write; readers see the latest" (fun () ->
        let sched = Sched.create ~seed:1L () in
        let reg = Mw.create ~sched ~name:"MW" ~n:3 ~init:0 () in
        let got = ref (-1) in
        Sched.spawn sched ~pid:0 (fun () -> Mw.write reg ~proc:0 5);
        Sched.spawn sched ~pid:1 (fun () ->
            Mw.write reg ~proc:1 6;
            got := Mw.read reg ~reader:1);
        let rng = Core.Rng.create 2L in
        let policy =
          Net.auto_deliver_policy (Mw.net reg) ~rng (Sched.random_policy rng)
        in
        ignore (Sched.run sched ~policy ~max_steps:8000);
        check_bool "one of the writes" true (!got = 5 || !got = 6));
    tc "reader of a quiescent register reads the last write" (fun () ->
        let sched = Sched.create ~seed:3L () in
        let reg = Mw.create ~sched ~name:"MW" ~n:3 ~init:0 () in
        let got = ref (-1) in
        let w_done = ref false in
        Sched.spawn sched ~pid:0 (fun () ->
            Mw.write reg ~proc:0 7;
            w_done := true);
        let rng = Core.Rng.create 4L in
        let policy s =
          if !w_done then Sched.Halt
          else
            Net.auto_deliver_policy (Mw.net reg) ~rng (Sched.random_policy rng) s
        in
        ignore (Sched.run sched ~policy ~max_steps:4000);
        check_bool "write finished" true !w_done;
        Sched.spawn sched ~pid:2 (fun () -> got := Mw.read reg ~reader:2);
        let policy =
          Net.auto_deliver_policy (Mw.net reg) ~rng (Sched.random_policy rng)
        in
        ignore (Sched.run sched ~policy ~max_steps:4000);
        check_int "latest" 7 !got);
    tc "create validates n" (fun () ->
        Alcotest.check_raises "n" (Invalid_argument "Mwabd.create: n must be >= 2")
          (fun () ->
            ignore
              (Mw.create ~sched:(Sched.create ()) ~name:"X" ~n:1 ~init:0 ())));
  ]

let random_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"random MW-ABD runs are linearizable" ~count:15
         (QCheck.make ~print:Int64.to_string
            QCheck.Gen.(map Int64.of_int (int_bound 1_000_000)))
         (fun seed ->
           let run =
             Runs.execute_config
               {
                 Core.Run_config.default with
                 proto = Mw;
                 n = 3;
                 writers = [ 0; 1 ];
                 writes_each = 2;
                 readers = [ 2 ];
                 reads_each = 3;
                 seed;
               }
           in
           run.Runs.completed
           && Core.Lincheck.check ~init:(V.Int 0) run.Runs.history));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"5-node MW-ABD runs are linearizable" ~count:8
         (QCheck.make ~print:Int64.to_string
            QCheck.Gen.(map Int64.of_int (int_bound 1_000_000)))
         (fun seed ->
           let run =
             Runs.execute_config
               {
                 Core.Run_config.default with
                 proto = Mw;
                 writers = [ 0; 1; 2 ];
                 writes_each = 1;
                 readers = [ 3; 4 ];
                 reads_each = 2;
                 seed;
               }
           in
           run.Runs.completed
           && Core.Lincheck.check ~init:(V.Int 0) run.Runs.history));
  ]

let scenario_tests =
  [
    tc "MW-ABD is not write strongly-linearizable (Fig 4 in messages)"
      (fun () ->
        let o = Core.Mwabd_scenario.run () in
        check_bool "tree impossible" true o.Core.Treecheck.wsl_impossible);
    tc "each branch alone admits a WSL function" (fun () ->
        let o = Core.Mwabd_scenario.run () in
        check_bool "chains" true o.Core.Treecheck.chains_ok);
    tc "all three histories are linearizable" (fun () ->
        let o = Core.Mwabd_scenario.run () in
        check_bool "lin" true o.Core.Treecheck.all_linearizable);
    tc "the branches really share G" (fun () ->
        let o = Core.Mwabd_scenario.run () in
        check_bool "h1" true
          (Core.Hist.is_prefix o.Core.Treecheck.g ~of_:o.Core.Treecheck.h1);
        check_bool "h2" true
          (Core.Hist.is_prefix o.Core.Treecheck.g ~of_:o.Core.Treecheck.h2));
    tc "the reads observed opposite writers" (fun () ->
        let o = Core.Mwabd_scenario.run () in
        let result h =
          Core.Hist.reads h
          |> List.find_map (fun (op : Core.Op.t) -> op.result)
        in
        check_bool "h1 saw w2" true (result o.Core.Treecheck.h1 = Some (V.Int 302));
        check_bool "h2 saw w1" true (result o.Core.Treecheck.h2 = Some (V.Int 301)));
  ]

let suite =
  [
    ("mwabd.basic", basic_tests);
    ("mwabd.random", random_tests);
    ("mwabd.scenario", scenario_tests);
  ]
