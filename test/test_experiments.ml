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

(* A report holds what its own experiment recorded: E11 run after E6
   reports exactly what E11 run alone does, down to the gauges E6 left
   at the same values *)
let test_row_is_its_experiment () =
  let faults =
    { Core.Faults.none with Core.Faults.drop = 0.1; duplicate = 0.05 }
  in
  let e11 only =
    match List.rev (Experiments.all ~faults ~only ~quick:true ()) with
    | r :: _ ->
        List.filter (fun (k, _) -> k <> "wall_ms") r.Experiments.metrics
    | [] -> Alcotest.fail "no report"
  in
  Alcotest.(check (list (pair string (float 0.))))
    "E11's metrics" (e11 [ "E11" ]) (e11 [ "E6"; "E11" ])

(* whether [s] holds two consecutive spaces *)
let double_space s =
  let rec from i =
    i + 1 < String.length s && ((s.[i] = ' ' && s.[i + 1] = ' ') || from (i + 1))
  in
  from 0

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
                  (List.length finite >= 3);
                (* a string literal continued without its backslash
                   keeps the next line's indentation *)
                List.iter
                  (fun text ->
                    Alcotest.(check bool)
                      (Printf.sprintf "%s has no double space: %S"
                         r.Experiments.id text)
                      false
                      (double_space text))
                  [ r.Experiments.claim; r.Experiments.expected;
                    r.Experiments.measured ])
              reports);
        Alcotest.test_case "E6 says whose crash schedule ran" `Quick
          test_e6_names_its_crashes;
        Alcotest.test_case "a row does not depend on what ran before it"
          `Quick test_row_is_its_experiment;
      ] );
  ]
