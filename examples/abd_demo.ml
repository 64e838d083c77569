(* ABD in a simulated message-passing system, with crashes.

   The run produces a SWMR register history under random asynchrony while
   replicas 3 and 4 crash at steps 60 and 120; we check it is linearizable
   and — per Theorem 14 — write strongly-linearizable, by applying the f*
   construction to every prefix and watching the write order grow
   monotonically.

     dune exec examples/abd_demo.exe
*)

let () =
  print_endline "=== ABD: 5 nodes, writer + 2 readers, 2 crashes mid-run ===";
  let config =
    {
      Core.Run_config.default with
      writes_each = 5;
      reads_each = 4;
      faults = { Core.Faults.none with crash_at = [ (60, 3); (120, 4) ] };
      seed = 4242L;
    }
  in
  let run = Core.Abd_runs.execute_config config in
  Printf.printf "completed: %b (in %d scheduler steps)\n" run.completed run.steps;
  print_endline "history of the replicated register:";
  print_string (Core.Timeline.render run.history);
  (match Core.Abd_runs.check run with
  | Ok () ->
      print_endline
        "\ncheck: linearizable AND write strongly-linearizable (f* write \
         order monotone on every prefix)"
  | Error e -> Printf.printf "\ncheck FAILED: %s\n" e);

  (* The f* write orders along the prefixes, to make Theorem 14 concrete. *)
  match Core.Fstar.wsl_function ~init:(Core.Value.Int 0) run.history with
  | Error e -> Printf.printf "unexpected: %s\n" e
  | Ok orders ->
      let final = List.nth orders (List.length orders - 1) in
      Printf.printf
        "\nf* write order grew monotonically over %d prefixes up to: [%s]\n"
        (List.length orders)
        (String.concat "; " (List.map string_of_int final))
