(* Tests for the Theorem-14 construction f*: every linearizable SWMR
   register history admits a write strong-linearization, computed by
   ordering writes by the (single, sequential) writer and trimming a
   trailing unread pending write. *)

module V = Core.Value
module Op = Core.Op
module Hist = Core.Hist
module F = Core.Fstar

let tc name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let init = V.Int 0

let op ?responded ?result ~id ~proc ~kind ~invoked () =
  Op.make ~id ~proc ~obj:"R" ~kind ~invoked ?responded ?result ()

let w ?responded ~id ~invoked v =
  op ~id ~proc:1 ~kind:(Op.Write (V.Int v)) ~invoked ?responded ()

let r ~id ~proc ~invoked ~responded v =
  op ~id ~proc ~kind:Op.Read ~invoked ~responded ~result:(V.Int v) ()

let unit_tests =
  [
    tc "empty history" (fun () ->
        check_bool "some" true (F.linearize ~init Hist.empty = Some []));
    tc "reads only, initial value" (fun () ->
        let h =
          Hist.of_ops
            [ r ~id:1 ~proc:2 ~invoked:1 ~responded:2 0;
              r ~id:2 ~proc:3 ~invoked:3 ~responded:4 0 ]
        in
        match F.linearize ~init h with
        | Some s -> Alcotest.(check int) "two" 2 (List.length s)
        | None -> Alcotest.fail "linearizable");
    tc "reads only, wrong value" (fun () ->
        let h = Hist.of_ops [ r ~id:1 ~proc:2 ~invoked:1 ~responded:2 77 ] in
        check_bool "none" true (F.linearize ~init h = None));
    tc "writes ordered by the writer" (fun () ->
        let h =
          Hist.of_ops
            [
              w ~id:1 ~invoked:1 ~responded:2 100;
              w ~id:2 ~invoked:3 ~responded:4 200;
              r ~id:3 ~proc:2 ~invoked:5 ~responded:6 200;
            ]
        in
        match F.linearize ~init h with
        | Some s ->
            Alcotest.(check (list int)) "order" [ 1; 2; 3 ]
              (List.map (fun (o : Op.t) -> o.id) s);
            check_bool "valid" true (Hist.Seq.is_linearization_of ~init h s)
        | None -> Alcotest.fail "linearizable");
    tc "read placed after the write it observed" (fun () ->
        let h =
          Hist.of_ops
            [
              w ~id:1 ~invoked:1 ~responded:4 100;
              r ~id:2 ~proc:2 ~invoked:2 ~responded:3 0 (* reads init *);
              w ~id:3 ~invoked:5 ~responded:8 200;
              r ~id:4 ~proc:2 ~invoked:6 ~responded:7 100 (* still old *);
            ]
        in
        match F.linearize ~init h with
        | Some s ->
            check_bool "valid" true (Hist.Seq.is_linearization_of ~init h s)
        | None -> Alcotest.fail "linearizable");
    tc "pending unread write is trimmed (Lemma 67)" (fun () ->
        let h =
          Hist.of_ops
            [ w ~id:1 ~invoked:1 ~responded:2 100; w ~id:2 ~invoked:3 200 ]
        in
        match F.linearize ~init h with
        | Some s ->
            Alcotest.(check (list int)) "trimmed" [ 1 ]
              (List.map (fun (o : Op.t) -> o.id) s)
        | None -> Alcotest.fail "linearizable");
    tc "pending write read by someone is kept" (fun () ->
        let h =
          Hist.of_ops
            [
              w ~id:1 ~invoked:1 ~responded:2 100;
              w ~id:2 ~invoked:3 200;
              r ~id:3 ~proc:2 ~invoked:4 ~responded:5 200;
            ]
        in
        match F.linearize ~init h with
        | Some s ->
            Alcotest.(check (list int)) "kept" [ 1; 2; 3 ]
              (List.map (fun (o : Op.t) -> o.id) s)
        | None -> Alcotest.fail "linearizable");
    tc "non-linearizable input rejected" (fun () ->
        (* read of the old value strictly after the new write completed *)
        let h =
          Hist.of_ops
            [
              w ~id:1 ~invoked:1 ~responded:2 100;
              r ~id:2 ~proc:2 ~invoked:3 ~responded:4 0;
            ]
        in
        check_bool "none" true (F.linearize ~init h = None));
    tc "multi-writer input rejected loudly" (fun () ->
        let h =
          Hist.of_ops
            [
              w ~id:1 ~invoked:1 ~responded:2 100;
              op ~id:2 ~proc:2 ~kind:(Op.Write (V.Int 200)) ~invoked:3
                ~responded:4 ();
            ]
        in
        try
          ignore (F.linearize ~init h);
          Alcotest.fail "accepted two writers"
        with Invalid_argument _ -> ());
    tc "wsl_function: monotone write orders on a prefix chain" (fun () ->
        let h =
          Hist.of_ops
            [
              w ~id:1 ~invoked:1 ~responded:3 100;
              r ~id:2 ~proc:2 ~invoked:2 ~responded:5 100;
              w ~id:3 ~invoked:6 ~responded:8 200;
              r ~id:4 ~proc:3 ~invoked:7 ~responded:9 200;
            ]
        in
        match F.wsl_function ~init h with
        | Ok orders ->
            Alcotest.(check int) "one per prefix" (Hist.length h + 1)
              (List.length orders)
        | Error e -> Alcotest.fail e);
    tc "wsl_function flags non-linearizable prefixes" (fun () ->
        let h =
          Hist.of_ops
            [
              w ~id:1 ~invoked:1 ~responded:2 100;
              r ~id:2 ~proc:2 ~invoked:3 ~responded:4 0;
            ]
        in
        match F.wsl_function ~init h with
        | Ok _ -> Alcotest.fail "accepted a bad history"
        | Error _ -> ());
  ]

(* property: on histories recorded from the ABD register (single writer),
   f* always succeeds with monotone write orders — the executable content
   of Theorem 14 *)
let props =
  let seed_arb =
    QCheck.make ~print:Int64.to_string
      QCheck.Gen.(map Int64.of_int (int_bound 1_000_000))
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"Thm 14 on ABD histories (no crashes)" ~count:15
         seed_arb (fun seed ->
           let run =
             Core.Abd_runs.execute_config { Test_abd.shape with seed }
           in
           QCheck.assume run.Core.Abd_runs.completed;
           match F.wsl_function ~init run.Core.Abd_runs.history with
           | Ok _ -> true
           | Error _ -> false));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"Thm 14 on ABD histories (minority crashes)"
         ~count:10 seed_arb (fun seed ->
           let run =
             Core.Abd_runs.execute_config
               { Test_abd.shape with seed; faults = Test_abd.crashes }
           in
           QCheck.assume run.Core.Abd_runs.completed;
           match F.wsl_function ~init run.Core.Abd_runs.history with
           | Ok _ -> true
           | Error _ -> false));
  ]

let suite = [ ("fstar.unit", unit_tests); ("fstar.props", props) ]
