(* Integration test: the full experiment battery (quick profile) must
   reproduce every claim of the paper. *)

let tcs name f = Alcotest.test_case name `Slow f

(* E6 crashes nodes 3 and 4 on its even-seeded runs unless the plan
   brings its own crash schedule, which then applies to every run; the
   report says which of the two ran *)
let test_e6_names_its_crashes () =
  let measured ?faults () =
    match Experiments.all ~only:[ "E6" ] ?faults ~quick:true () with
    | [ r ] -> r.Experiments.measured
    | _ -> Alcotest.fail "expected one E6 report"
  in
  Alcotest.(check string)
    "E6's own crashes" "10/10 runs pass (half with 2/5 nodes crashed)"
    (measured ());
  Alcotest.(check string)
    "the plan's crashes"
    "10/10 runs pass (the plan's crash schedule on every run)"
    (measured
       ~faults:
         { Core.Faults.none with Core.Faults.crash_at = [ (60, 3); (120, 4) ] }
       ())

let suite =
  [
    ( "experiments.battery",
      [
        tcs "E1-E15: claims reproduce and every report carries metrics"
          (fun () ->
            let reports = Experiments.all ~quick:true () in
            List.iter
              (fun (r : Experiments.report) ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s: %s" r.Experiments.id r.Experiments.measured)
                  true r.Experiments.pass;
                let finite =
                  List.filter
                    (fun (_, v) -> Float.is_finite v)
                    r.Experiments.metrics
                in
                Alcotest.(check bool)
                  (Printf.sprintf "%s carries >= 3 finite metrics"
                     r.Experiments.id)
                  true
                  (List.length finite >= 3))
              reports);
        Alcotest.test_case "E6 says whose crash schedule ran" `Quick
          test_e6_names_its_crashes;
      ] );
  ]
