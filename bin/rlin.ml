(* Command-line driver for the reproduction of "On Register Linearizability
   and Termination" (PODC 2021).

   Subcommands:
     rlin experiments [--quick] [-j N] [--only E1,E5] [--json FILE]
                      [--drop P] [--dup P] [--delay P] [--crash n@s,...]
                      [--recover n@s,...]
                                       run the E1-E15 battery
     rlin game --mode MODE ...         run Algorithm 1 under a chosen regime
     rlin fig3 | rlin fig4             replay the paper's figures
     rlin abd ...                      run an ABD workload and check it
     rlin mwabd                        multi-writer ABD + its non-WSL refutation
     rlin check ...                    seeded history batteries through the
                                       checker
     rlin chaos run ...                random config search + online monitors
     rlin chaos replay PATH            replay the regression corpus verbatim
     rlin chaos shrink PATH            re-minimize corpus entries
     rlin chaos adv --mode MODE        chaos adversary vs the exact checker
     rlin fleet ...                    sharded fleet workload: batched quorum
                                       delivery, generational client sessions
     rlin consensus ...                run Corollary 9's A'
     rlin trace --source S --out FILE  dump a run's trace as JSONL
     rlin serve ...                    streaming linearizability checker
     rlin metrics --source S           run a workload, print its metrics
*)

open Cmdliner

let seed_arg =
  let doc = "Random seed (determines coins, schedules, workloads)." in
  Arg.(value & opt int64 1L & info [ "seed" ] ~docv:"SEED" ~doc)

let n_arg default =
  let doc = "Number of processes." in
  Arg.(value & opt int default & info [ "n" ] ~docv:"N" ~doc)

(* [write ()] writes [path]; an unwritable path is one line on stderr and
   exit 1, never an escaped [Sys_error]. *)
let writing path write =
  try write ()
  with Sys_error msg ->
    Printf.eprintf "rlin: cannot write %s (%s)\n" path msg;
    exit 1

let write_jsonl path lines =
  if path = "-" then Obs.Export.write_lines stdout lines
  else writing path (fun () -> Obs.Export.to_file path lines)

(* A value the command or a library rejects is a usage error: one line on
   stderr and exit 2, never cmdliner's 125 for an uncaught
   [Invalid_argument]. *)
let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "rlin: %s\n" msg;
      exit 2)
    fmt

let or_usage_error f =
  try f () with Invalid_argument msg -> usage_error "%s" msg

(* ----- fault flags ------------------------------------------------------------ *)

(* Shared by `experiments` and `abd`: a deterministic link-fault plan
   (Simkit.Faults).  All-zero probabilities mean "no plan" — the benign
   fast path, with no fault RNG attached at all. *)
let faults_term =
  let prob name doc =
    Arg.(value & opt float 0. & info [ name ] ~docv:"P" ~doc)
  in
  let drop = prob "drop" "Per-delivery-attempt drop probability." in
  let dup = prob "dup" "Per-delivery-attempt duplication probability." in
  let delay =
    prob "delay"
      "Per-delivery-attempt deferral probability (bounded reorder window)."
  in
  let delay_bound =
    Arg.(
      value & opt int 4
      & info [ "delay-bound" ] ~docv:"K"
          ~doc:"Max deferrals per message (the reorder window).")
  in
  let build drop dup delay delay_bound =
    if drop = 0. && dup = 0. && delay = 0. then None
    else
      Some
        {
          Core.Faults.none with
          Core.Faults.drop;
          duplicate = dup;
          delay;
          delay_bound;
        }
  in
  Term.(const build $ drop $ dup $ delay $ delay_bound)

(* ----- crash schedules -------------------------------------------------------- *)

(* `--crash` and `--recover` entries: NODE@STEP, an event on the
   scheduler's step clock (the Simkit.Faults.crash_at / recover_at form) *)
let crash_item_conv =
  let parse s =
    match List.map int_of_string_opt (String.split_on_char '@' s) with
    | [ Some node; Some step ] when step >= 0 -> Ok (step, node)
    | _ -> Error (`Msg (Printf.sprintf "bad entry %S (want NODE@STEP)" s))
  in
  let print fmt (s, n) = Format.fprintf fmt "%d@%d" n s in
  Arg.conv (parse, print)

let crash_arg ~doc = Arg.(value & opt (list crash_item_conv) [] & info [ "crash" ] ~docv:"SPECS" ~doc)

let recover_arg =
  Arg.(
    value
    & opt (list crash_item_conv) []
    & info [ "recover" ] ~docv:"SPECS"
        ~doc:
          "Comma-separated NODE@STEP recovery schedule, e.g. \
           $(b,3@400): restart node 3 at step 400 with a fresh \
           incarnation.  Each entry must recover a node crashed \
           earlier by $(b,--crash) (crash/recover must alternate per \
           node).")

(* ----- experiments --------------------------------------------------------- *)

let jobs_arg =
  let doc =
    "Run independent Monte-Carlo runs on up to $(docv) domains (default: \
     the machine's recommended domain count).  Reports are identical \
     whatever $(docv) is; only wall-clock changes."
  in
  Arg.(
    value
    & opt int (Core.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"JOBS" ~doc)

let experiments_cmd =
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Smaller run counts (seconds).")
  in
  let only =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "only" ] ~docv:"IDS"
          ~doc:
            "Comma-separated experiment ids to run (e.g. $(b,E1,E5)); \
             always executed in battery order.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Also write the battery as line-delimited JSON, one record per \
             report ('-' for stdout).")
  in
  let run quick jobs only json faults crash recover =
    (* Pool.fold_runs right-sizes the minor heap of every domain that
       runs its tasks, but some --only selections (E4, E8, E13) never
       reach it, so the battery's main domain sets its own *)
    Core.Pool.right_size_minor_heap ();
    (match only with
    | Some ids when
        List.exists
          (fun id ->
            not (List.mem (String.uppercase_ascii id) Experiments.ids))
          ids ->
        usage_error "unknown experiment id in --only (know %s)"
          (String.concat ", " Experiments.ids)
    | _ -> ());
    let faults =
      (* --crash n@s[,n@s...] joins the link-fault plan as its crash_at
         schedule (--recover as its recover_at); validated against E6's
         topology (5 nodes, clients 0/1/2) — the only fault-aware
         experiment with crashable nodes *)
      or_usage_error (fun () ->
          Core.Abd_runs.validate_crash_schedule ~what:"rlin experiments" ~n:5
            ~clients:[ 0; 1; 2 ] ~recoveries:recover crash);
      match (faults, crash) with
      | None, [] -> None
      | Some plan, crash_at ->
          Some { plan with Core.Faults.crash_at; recover_at = recover }
      | None, crash_at ->
          Some
            { Core.Faults.none with Core.Faults.crash_at; recover_at = recover }
    in
    (match faults with
    | Some plan -> (
        try Core.Faults.validate plan
        with Invalid_argument msg -> usage_error "bad fault plan: %s" msg)
    | None -> ());
    let reports = Experiments.all ~jobs ?only ?faults ~quick () in
    List.iter
      (fun r -> Format.printf "%a@." Experiments.pp_report r)
      reports;
    let passed = List.filter (fun r -> r.Experiments.pass) reports in
    Format.printf "=== %d/%d experiments reproduce the paper's claims ===@."
      (List.length passed) (List.length reports);
    Option.iter
      (fun path -> write_jsonl path (List.map Experiments.report_json reports))
      json;
    if List.length passed = List.length reports then 0 else 1
  in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:
         "Run the full experiment battery (E1-E14), one per paper artifact; \
          $(b,--drop)/$(b,--dup)/$(b,--delay)/$(b,--crash)/$(b,--recover) \
          subject the fault-aware experiments (E6, E10) to a deterministic \
          link-fault plan (crash/recovery schedules affect E6 only: E10's \
          nodes are all clients).")
    Term.(
      const run $ quick $ jobs_arg $ only $ json $ faults_term
      $ crash_arg
          ~doc:
            "Comma-separated NODE@STEP crash schedule for the fault-aware \
             experiments, e.g. $(b,3@150,4@300) (E6 topology: 5 nodes, \
             clients 0-2)."
      $ recover_arg)

(* ----- game ----------------------------------------------------------------- *)

let mode_conv =
  let parse = function
    | "atomic" -> Ok Core.Adv_register.Atomic
    | "wsl" | "write-strong" -> Ok Core.Adv_register.Write_strong
    | "lin" | "linearizable" -> Ok Core.Adv_register.Linearizable
    | s -> Error (`Msg (Printf.sprintf "unknown mode %S (atomic|wsl|lin)" s))
  in
  let print fmt m =
    Format.pp_print_string fmt
      (match m with
      | Core.Adv_register.Atomic -> "atomic"
      | Core.Adv_register.Write_strong -> "wsl"
      | Core.Adv_register.Linearizable -> "lin")
  in
  Arg.conv (parse, print)

let mode_conv_term =
  Arg.(
    value
    & opt mode_conv Core.Adv_register.Linearizable
    & info [ "mode" ] ~docv:"MODE"
        ~doc:"Register mode: atomic, wsl or lin.")

let game_cmd =
  let mode =
    Arg.(
      value
      & opt mode_conv Core.Adv_register.Write_strong
      & info [ "mode" ] ~docv:"MODE"
          ~doc:"Register mode: atomic, wsl (write strongly-linearizable) or \
                lin (merely linearizable; runs the Theorem-6 adversary).")
  in
  let rounds =
    Arg.(
      value & opt int 20
      & info [ "rounds" ] ~docv:"R" ~doc:"Round budget / adversary rounds.")
  in
  let run mode rounds n seed =
    (* a game is one run on this domain and never reaches Pool.fold_runs,
       which right-sizes the minor heap of the domains it runs tasks on *)
    Core.Pool.right_size_minor_heap ();
    (* Thm6 and Alg1 reject n < 3 and a round budget below 1 *)
    or_usage_error (fun () ->
        match mode with
        | Core.Adv_register.Linearizable ->
            let res = Core.Adversary.run_linearizable ~n ~rounds ~seed () in
            Printf.printf
              "Theorem-6 adversary, %d rounds driven: terminated=%b, every \
               process in round %d\n"
              rounds res.Core.Game_alg1.terminated res.Core.Game_alg1.max_round
        | Core.Adv_register.Write_strong ->
            let res = Core.Adversary.run_write_strong ~n ~max_rounds:rounds ~seed () in
            Printf.printf
              "same adversary vs WSL registers: terminated=%b at round %d\n"
              res.Core.Game_alg1.terminated res.Core.Game_alg1.max_round
        | Core.Adv_register.Atomic ->
            let cfg =
              { Core.Game_alg1.default with n; max_rounds = rounds; seed }
            in
            let res = Core.Game_alg1.run_random cfg ~max_steps:(rounds * n * 200) in
            Printf.printf "atomic registers, random scheduler: terminated=%b at round %d\n"
              res.Core.Game_alg1.terminated res.Core.Game_alg1.max_round);
    0
  in
  Cmd.v
    (Cmd.info "game"
       ~doc:"Run Algorithm 1 (the termination game) under a register mode.")
    Term.(const run $ mode $ rounds $ n_arg 5 $ seed_arg)

(* ----- figures --------------------------------------------------------------- *)

let fig3_cmd =
  let run () =
    let f3 = Core.Scenario.fig3 () in
    print_endline "Figure 3: three concurrent writes under Algorithm 2";
    print_string (Core.Timeline.render f3.Core.Scenario.history);
    Printf.printf "write order committed at w2's completion (t=%d): [%s]\n"
      f3.Core.Scenario.t_w2
      (String.concat "; " (List.map string_of_int f3.Core.Scenario.ws_at_t));
    Printf.printf "final write order: [%s]\n"
      (String.concat "; " (List.map string_of_int f3.Core.Scenario.final_ws));
    0
  in
  Cmd.v
    (Cmd.info "fig3" ~doc:"Replay Figure 3 (on-line ordering of concurrent writes).")
    Term.(const run $ const ())

let fig4_cmd =
  let run () =
    let f4 = Core.Scenario.fig4 () in
    print_endline "Figure 4: the Theorem-13 counterexample on Algorithm 4";
    print_endline "G:";
    print_string (Core.Timeline.render f4.Core.Treecheck.g);
    print_endline "H1 (forces w1 < w2):";
    print_string (Core.Timeline.render f4.Core.Treecheck.h1);
    print_endline "H2 (forces w2 < w1):";
    print_string (Core.Timeline.render f4.Core.Treecheck.h2);
    Printf.printf
      "write strong-linearization impossible on {G -> H1, H2}: %b\n"
      f4.Core.Treecheck.wsl_impossible;
    if f4.Core.Treecheck.wsl_impossible then 0 else 1
  in
  Cmd.v
    (Cmd.info "fig4" ~doc:"Replay Figure 4 (Algorithm 4 is not WSL).")
    Term.(const run $ const ())

(* ----- abd ------------------------------------------------------------------- *)

(* The runs of `trace --source abd|mwabd`, `metrics --source abd` and
   `mwabd`: four writes and three reads each by readers 1 and 2 on five
   nodes; two writers and one reader on three nodes *)
let abd_config seed =
  {
    Core.Run_config.default with
    Core.Run_config.writes_each = 4;
    reads_each = 3;
    seed;
  }

let mwabd_config seed =
  {
    Core.Run_config.default with
    Core.Run_config.proto = Mw;
    n = 3;
    writers = [ 0; 1 ];
    writes_each = 2;
    readers = [ 2 ];
    reads_each = 3;
    seed;
  }

let abd_cmd =
  let writes =
    Arg.(value & opt int 5 & info [ "writes" ] ~docv:"K" ~doc:"Writer operations.")
  in
  let run n writes crash_at recover_at seed faults =
    (* every reader reads writes - 1 times *)
    if writes < 1 then usage_error "--writes must be >= 1";
    let faults = Option.value faults ~default:Core.Faults.none in
    let config =
      {
        Core.Run_config.default with
        n;
        writes_each = writes;
        reads_each = writes - 1;
        faults = { faults with Core.Faults.crash_at; recover_at };
        seed;
      }
    in
    let run =
      or_usage_error (fun () -> Core.Abd_runs.execute_config config)
    in
    print_string (Core.Timeline.render run.Core.Abd_runs.history);
    match Core.Abd_runs.check run with
    | Ok () ->
        print_endline "check: linearizable and write strongly-linearizable";
        0
    | Error e ->
        Printf.printf "check FAILED: %s\n" e;
        1
  in
  Cmd.v
    (Cmd.info "abd"
       ~doc:
         "Run an ABD workload in the message-passing simulator, optionally \
          under a link-fault plan ($(b,--drop)/$(b,--dup)/$(b,--delay)) \
          and a crash/recovery schedule ($(b,--crash 3@60,4@120): crash \
          node 3 at step 60 and node 4 at step 120; $(b,--recover \
          4@500): restart node 4 at step 500).")
    Term.(
      const run $ n_arg 5 $ writes
      $ crash_arg
          ~doc:
            "Comma-separated NODE@STEP crash schedule on the scheduler's \
             step clock (crashed nodes must leave a majority; nodes 0-2 \
             are the clients and must survive)."
      $ recover_arg $ seed_arg $ faults_term)

(* ----- consensus ------------------------------------------------------------- *)

let consensus_cmd =
  let blocked =
    Arg.(
      value & flag
      & info [ "blocked" ]
          ~doc:"Run the blocked variant (linearizable gate + adversary).")
  in
  let run n blocked seed =
    let cfg =
      { Core.Cor9.n; gate_rounds = 30; consensus_max_rounds = 300; seed }
    in
    if blocked then begin
      let o = or_usage_error (fun () -> Core.Cor9.run_blocked cfg) in
      Printf.printf "gate blocked forever: %b (no process started consensus)\n"
        o.Core.Cor9.blocked;
      if o.Core.Cor9.blocked then 0 else 1
    end
    else begin
      let o =
        or_usage_error (fun () ->
            Core.Cor9.run_live cfg ~inputs:(fun pid -> pid mod 2))
      in
      let decided =
        List.filter (fun (_, d) -> d <> None)
          o.Core.Cor9.consensus.Core.Rand_consensus.decisions
      in
      Printf.printf
        "gate opened at round %d; %d/%d decided; agreement=%b validity=%b\n"
        o.Core.Cor9.game.Core.Game_alg1.max_round (List.length decided) n
        o.Core.Cor9.consensus.Core.Rand_consensus.agreed
        o.Core.Cor9.consensus.Core.Rand_consensus.valid;
      0
    end
  in
  Cmd.v
    (Cmd.info "consensus" ~doc:"Run Corollary 9's A' (gate + consensus).")
    Term.(const run $ n_arg 5 $ blocked $ seed_arg)

(* ----- mwabd ------------------------------------------------------------------ *)

let mwabd_cmd =
  let run seed =
    let run = Core.Abd_runs.execute_config (mwabd_config seed) in
    print_string (Core.Timeline.render run.Core.Abd_runs.history);
    Printf.printf "linearizable: %b
"
      (Core.Lincheck.check ~init:(Core.Value.Int 0) run.Core.Abd_runs.history);
    let sc = Core.Mwabd_scenario.run () in
    Printf.printf
      "write strong-linearization impossible on the delivery-order tree: %b
"
      sc.Core.Treecheck.wsl_impossible;
    if sc.Core.Treecheck.wsl_impossible then 0 else 1
  in
  Cmd.v
    (Cmd.info "mwabd"
       ~doc:"Run a multi-writer ABD workload and its non-WSL counterexample.")
    Term.(const run $ seed_arg)

(* ----- chaos ------------------------------------------------------------------ *)

let violation_line (v : Core.Monitor.violation) =
  Printf.sprintf "%s: %s" v.Core.Monitor.monitor v.Core.Monitor.detail

let chaos_run_cmd =
  let budget =
    Arg.(
      value & opt int 200
      & info [ "budget" ] ~docv:"N"
          ~doc:"Number of random configurations to execute.")
  in
  let inject =
    Arg.(
      value & flag
      & info [ "inject-quorum-bug" ]
          ~doc:
            "Self-test: generate configs whose quorum override is majority \
             - 1 (no quorum intersection), proving the monitor -> shrinker \
             -> corpus loop catches a real protocol bug.")
  in
  let inject_recovery =
    Arg.(
      value & flag
      & info [ "inject-recovery-bug" ]
          ~doc:
            "Self-test: generate configs that pair every crash with a \
             recovery, persist nothing, and skip the state-transfer \
             handshake — recovered replicas rejoin quorums amnesiac, \
             which the recovery-sanity (or linearizability) monitor must \
             catch.  Mutually exclusive with $(b,--inject-quorum-bug).")
  in
  let corpus =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Append every minimal reproducer to \
             $(docv)/found-SEED.jsonl for $(b,rlin chaos replay).")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the search report as one JSONL record ('-' for stdout); \
             carries no wall-clock, so reports diff clean across -j.")
  in
  let flight =
    Arg.(
      value & flag
      & info [ "flight-recorder" ]
          ~doc:
            "Re-execute every shrunk reproducer under an armed causal \
             flight recorder and attach the last recorded events to its \
             corpus entry as a post-mortem (sequential, deterministic; \
             reports still diff clean across -j).")
  in
  let run budget seed jobs inject inject_recovery corpus json flight =
    if budget < 0 then usage_error "--budget must be >= 0";
    if inject && inject_recovery then
      usage_error
        "--inject-quorum-bug and --inject-recovery-bug are mutually exclusive";
    let inject =
      if inject then Some Core.Chaos.Quorum_too_small
      else if inject_recovery then Some Core.Chaos.Unsafe_recovery
      else None
    in
    let report =
      Core.Chaos.search ~jobs ?inject ~flight
        ~telemetry:Obs.Metrics.global ~seed ~budget ()
    in
    let findings = report.Core.Chaos.findings in
    Printf.printf "chaos: %d configs explored (seed %Ld), %d violations\n"
      budget seed (List.length findings);
    List.iter
      (fun f ->
        Printf.printf "  [%d] %s\n      shrunk to %s in %d executions\n"
          f.Core.Chaos.index
          (violation_line f.Core.Chaos.first)
          (Core.Json.to_string
             (Core.Run_config.json f.Core.Chaos.shrunk.Core.Shrink.config))
          f.Core.Chaos.shrunk.Core.Shrink.attempts;
        if flight then
          Printf.printf "      post-mortem: %d flight-recorder events\n"
            (List.length f.Core.Chaos.postmortem))
      findings;
    Option.iter
      (fun dir ->
        if findings <> [] then begin
          let path =
            Filename.concat dir (Printf.sprintf "found-%Ld.jsonl" seed)
          in
          writing dir (fun () ->
              if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
              List.iter (Core.Corpus.append path)
                (Core.Chaos.to_entries report));
          Printf.printf "wrote %d reproducers to %s\n" (List.length findings)
            path
        end)
      corpus;
    Option.iter
      (fun path -> write_jsonl path [ Core.Chaos.report_json report ])
      json;
    if findings = [] then 0 else 1
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Random chaos search: sample (workload x fault plan x \
          crash/recovery schedule x persist policy) configurations, \
          execute each against the online monitors (linearizability, \
          termination, quorum sanity, recovery sanity), and delta-debug \
          every violation to a minimal reproducer.  Exits non-zero when \
          violations were found.")
    Term.(
      const run $ budget $ seed_arg $ jobs_arg $ inject $ inject_recovery
      $ corpus $ json $ flight)

let replay_path path =
  match Core.Corpus.load path with
  | Error e ->
      Printf.eprintf "rlin chaos replay: %s\n" e;
      2
  | Ok [] ->
      Printf.printf "no corpus entries under %s\n" path;
      0
  | Ok entries ->
      let drift = ref 0 in
      List.iteri
        (fun i (e : Core.Corpus.entry) ->
          match Core.Corpus.replay e with
          | Core.Corpus.Reproduced ->
              Printf.printf "[%d] reproduced: %s\n" i
                (violation_line e.Core.Corpus.violation)
          | Core.Corpus.Changed v ->
              incr drift;
              Printf.printf "[%d] CHANGED: stored %s, now %s\n" i
                (violation_line e.Core.Corpus.violation)
                (violation_line v)
          | Core.Corpus.Fixed ->
              incr drift;
              Printf.printf "[%d] FIXED: %s no longer reproduces\n" i
                (violation_line e.Core.Corpus.violation))
        entries;
      let total = List.length entries in
      Printf.printf "%d/%d entries reproduce verbatim\n" (total - !drift)
        total;
      if !drift = 0 then 0 else 1

let corpus_path_arg =
  Arg.(
    value & pos 0 string "corpus"
    & info [] ~docv:"PATH"
        ~doc:"A .jsonl corpus file, or a directory of them.")

let chaos_replay_cmd =
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-execute every regression-corpus entry from its recorded \
          config and demand the byte-identical violation.  Exits non-zero \
          on drift — a silently fixed entry and a changed failure mode \
          both count.")
    Term.(const replay_path $ corpus_path_arg)

let chaos_shrink_cmd =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the re-minimized entries as a fresh corpus file.")
  in
  let run path out =
    match Core.Corpus.load path with
    | Error e ->
        Printf.eprintf "rlin chaos shrink: %s\n" e;
        2
    | Ok entries ->
        let shrunk =
          List.filter_map
            (fun (e : Core.Corpus.entry) ->
              match Core.Monitor.run_config e.Core.Corpus.config with
              | None ->
                  Printf.printf "dropping fixed entry (%s)\n"
                    (violation_line e.Core.Corpus.violation);
                  None
              | Some v ->
                  let o =
                    Core.Shrink.minimize ~violation:v e.Core.Corpus.config
                  in
                  Printf.printf
                    "%s: %d further reduction(s) in %d executions\n"
                    v.Core.Monitor.monitor o.Core.Shrink.steps
                    o.Core.Shrink.attempts;
                  Some
                    {
                      e with
                      Core.Corpus.config = o.Core.Shrink.config;
                      violation = o.Core.Shrink.violation;
                      shrink_attempts =
                        e.Core.Corpus.shrink_attempts + o.Core.Shrink.attempts;
                    })
            entries
        in
        (match out with
        | Some f ->
            writing f (fun () -> Core.Corpus.save f shrunk);
            Printf.printf "wrote %d entries to %s\n" (List.length shrunk) f
        | None -> ());
        0
  in
  Cmd.v
    (Cmd.info "shrink"
       ~doc:
         "Re-run the delta-debugging shrinker over existing corpus entries \
          (useful after widening the shrink lattice); entries that no \
          longer fail are dropped.")
    Term.(const run $ corpus_path_arg $ out)

let chaos_adv_cmd =
  let run mode seed =
    let o = Core.Scenario.Chaos.run ~mode ~n_procs:3 ~ops_per_proc:4 ~seed in
    print_string (Core.Timeline.render o.Core.Scenario.Chaos.history);
    Printf.printf
      "edits attempted %d (refused %d); history linearizable: %b
"
      o.Core.Scenario.Chaos.attempted_edits o.Core.Scenario.Chaos.refused_edits
      (Core.Lincheck.check ~init:(Core.Value.Int 0)
         o.Core.Scenario.Chaos.history);
    0
  in
  Cmd.v
    (Cmd.info "adv"
       ~doc:"Drive a register with the chaos adversary and check the history.")
    Term.(const run $ mode_conv_term $ seed_arg)

let chaos_cmd =
  let replay_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"PATH"
          ~doc:"Shorthand for $(b,rlin chaos replay) $(docv).")
  in
  let default =
    Term.(
      ret
        (const (function
           | Some path -> `Ok (replay_path path)
           | None -> `Help (`Pager, Some "chaos"))
        $ replay_opt))
  in
  Cmd.group ~default
    (Cmd.info "chaos"
       ~doc:
         "Chaos search with online invariant monitors, counterexample \
          shrinking and a replayable regression corpus ($(b,run), \
          $(b,replay), $(b,shrink)); $(b,adv) drives the adversarial \
          register from the earlier scenarios.")
    [ chaos_run_cmd; chaos_replay_cmd; chaos_shrink_cmd; chaos_adv_cmd ]

(* ----- trace ------------------------------------------------------------------ *)

let trace_source_conv =
  Arg.enum
    [
      ("fig3", `Fig3);
      ("alg2", `Alg2);
      ("alg4", `Alg4);
      ("game", `Game);
      ("abd", `Abd);
      ("mwabd", `Mwabd);
    ]

(* Streaming write with per-record verification: each line is re-parsed
   and structurally compared as it is written, so --out and --follow never
   buffer the whole stream just to audit it afterwards (the old scheme
   re-read the finished file, which an unbounded --follow can't do). *)
let write_jsonl_verified path lines =
  let go oc =
    let rec loop n = function
      | [] -> Ok n
      | v :: rest -> (
          match Obs.Export.write_line_verified oc v with
          | Ok () -> loop (n + 1) rest
          | Error e -> Error e)
    in
    loop 0 lines
  in
  if path = "-" then go stdout
  else
    match open_out path with
    | oc -> Fun.protect ~finally:(fun () -> close_out oc) (fun () -> go oc)
    | exception Sys_error msg -> Error msg

(* --validate FILE: a Perfetto document (one JSON object with a
   "traceEvents" member) or a JSONL stream of canonical trace events. *)
let validate_trace_file file =
  match Obs.Export.parse_file file with
  | Error e ->
      Printf.eprintf "rlin trace --validate: %s\n" e;
      2
  | Ok [ doc ] when Obs.Json.member "traceEvents" doc <> None -> (
      match Core.Tracer.validate_perfetto doc with
      | Ok n ->
          Printf.printf "%s: valid Perfetto trace (%d trace events)\n" file n;
          0
      | Error e ->
          Printf.eprintf "%s: INVALID Perfetto trace: %s\n" file e;
          1)
  | Ok records ->
      let rec go i = function
        | [] ->
            Printf.printf "%s: %d valid trace event records\n" file i;
            0
        | v :: rest -> (
            match Core.Tracer.validate_event_json v with
            | Ok () -> go (i + 1) rest
            | Error e ->
                Printf.eprintf "%s: record %d: %s\n" file (i + 1) e;
                1)
      in
      go 0 records

(* Hand [ic]'s lines to [f] as they arrive, through the partial-line-
   tolerant reader, so a final line caught mid-write is buffered and
   retried as the writer finishes it.  At end of input, with [follow],
   poll every 20 ms until [idle_ms] pass without growth.  Stops early
   once [f] returns false.  Returns the unterminated fragment left at the
   end, if any. *)
let tail_lines ic ~follow ~idle_ms f =
  let reader = Core.Serve.Ingest.Reader.create () in
  let buf = Bytes.create 65536 in
  let rec loop idle =
    let n = input ic buf 0 (Bytes.length buf) in
    if n > 0 then begin
      if
        List.for_all f
          (Core.Serve.Ingest.Reader.feed reader (Bytes.sub_string buf 0 n))
      then loop 0.
    end
    else if follow && idle < float_of_int idle_ms then begin
      Unix.sleepf 0.02;
      loop (idle +. 20.)
    end
  in
  loop 0.;
  Core.Serve.Ingest.Reader.take_rest reader

(* --validate FILE --follow: tail a JSONL stream another process is still
   writing.  Only after [idle_ms] without growth is a leftover fragment
   declared truncated — and even then it is a warning, not a failure (the
   writer was killed mid-line; the complete records before it are
   intact). *)
let validate_trace_follow file ~idle_ms =
  match open_in_bin file with
  | exception Sys_error e ->
      Printf.eprintf "rlin trace --validate: %s\n" e;
      2
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let count = ref 0 in
          let bad = ref None in
          let validate line =
            Result.bind (Obs.Json.of_string line)
              Core.Tracer.validate_event_json
          in
          let check_line line =
            String.trim line = ""
            ||
            match validate line with
            | Ok () ->
                incr count;
                true
            | Error e ->
                bad := Some (Printf.sprintf "record %d: %s" (!count + 1) e);
                false
          in
          let rest = tail_lines ic ~follow:true ~idle_ms check_line in
          match !bad with
          | Some e ->
              Printf.eprintf "%s: %s\n" file e;
              1
          | None ->
              (match rest with
              | Some frag when String.trim frag <> "" -> (
                  match validate frag with
                  | Ok () -> incr count
                  | Error _ ->
                      Printf.eprintf
                        "%s: final line truncated mid-write, ignored\n" file)
              | _ -> ());
              Printf.printf "%s: %d valid trace event records (followed)\n"
                file !count;
              0)

let trace_cmd =
  let source =
    Arg.(
      value
      & opt trace_source_conv `Fig3
      & info [ "source" ] ~docv:"SOURCE"
          ~doc:
            "Which run to trace: $(b,fig3) (the paper's Figure 3), \
             $(b,alg2)/$(b,alg4) (a random MWMR workload), $(b,game) (a \
             Theorem-7 game to termination), $(b,abd)/$(b,mwabd) (a \
             message-passing workload).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Write the operation trace as JSONL here ('-' for stdout); \
             every record is verified (rendered, re-parsed and compared) \
             as it streams.")
  in
  let perfetto =
    Arg.(
      value
      & opt (some string) None
      & info [ "perfetto" ] ~docv:"FILE"
          ~doc:
            "Export the flight recorder as Chrome trace_event JSON — open \
             it at https://ui.perfetto.dev.  One track per node/fiber, \
             flow arrows along message causality, counter tracks from \
             checker progress probes.  Flight-recorded sources \
             ($(b,abd)/$(b,mwabd)) only.")
  in
  let events_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "events" ] ~docv:"FILE"
          ~doc:
            "Write the flight recorder's canonical events as JSONL \
             ('-' for stdout).  Flight-recorded sources only.")
  in
  let dot_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"FILE"
          ~doc:
            "Write a Graphviz DOT causal graph of one event's ancestry \
             (see $(b,--op)).  Flight-recorded sources only.")
  in
  let op_seq =
    Arg.(
      value
      & opt (some int) None
      & info [ "op" ] ~docv:"SEQ"
          ~doc:
            "Event sequence number whose causal cone $(b,--dot) renders \
             (default: the last register $(i,respond) event — a complete \
             operation's full ancestry).")
  in
  let follow =
    Arg.(
      value & flag
      & info [ "follow" ]
          ~doc:
            "Stream flight-recorder events to stdout as JSONL while the \
             run executes (each line verified as written; nothing is \
             buffered).  Flight-recorded sources only.  With \
             $(b,--validate), tail the file instead: keep validating as \
             the writer appends, tolerating a partial (mid-write) final \
             line, and stop after $(b,--idle-ms) without growth.")
  in
  let validate_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "validate" ] ~docv:"FILE"
          ~doc:
            "Validate an existing trace artifact — a Perfetto document or \
             an event JSONL stream — against the schema, then exit \
             (ignores every other flag except $(b,--follow)).")
  in
  let idle_ms =
    Arg.(
      value & opt int 1000
      & info [ "idle-ms" ] ~docv:"MS"
          ~doc:
            "With --validate --follow: stop once the file has not grown \
             for this long.")
  in
  let flight =
    Arg.(
      value & opt int 65536
      & info [ "flight" ] ~docv:"K"
          ~doc:"Flight-recorder ring capacity (retains the last K events).")
  in
  let run source out perfetto events_out dot_out op_seq follow validate_file
      flight idle_ms seed =
    match validate_file with
    | Some file ->
        if follow then validate_trace_follow file ~idle_ms
        else validate_trace_file file
    | None -> (
        let wants_recorder =
          perfetto <> None || events_out <> None || dot_out <> None || follow
        in
        let recorded_source =
          match source with `Abd | `Mwabd -> true | _ -> false
        in
        if wants_recorder && not recorded_source then begin
          Printf.eprintf
            "rlin trace: --perfetto/--events/--dot/--follow need a \
             flight-recorded source (--source abd or mwabd)\n";
          2
        end
        else begin
          let tracer =
            if not wants_recorder then Core.Tracer.null
            else if flight < 1 then usage_error "--flight must be >= 1"
            else Core.Tracer.create ~capacity:flight ()
          in
          if follow then
            Core.Tracer.set_sink tracer
              (Some
                 (fun ev ->
                   (match
                      Obs.Export.write_line_verified stdout
                        (Core.Tracer.event_json ev)
                    with
                   | Ok () -> ()
                   | Error e ->
                       Printf.eprintf "rlin trace --follow: %s\n" e);
                   flush stdout));
          let trace =
            match source with
            | `Fig3 -> (Core.Scenario.fig3 ()).Core.Scenario.trace
            | `Alg2 ->
                (Core.Scenario.random_alg2_run ~n:3 ~writes_per_proc:2
                   ~reads_per_proc:2 ~seed ())
                  .Core.Scenario.trace
            | `Alg4 ->
                (Core.Scenario.random_alg4_run ~n:3 ~writes_per_proc:2
                   ~reads_per_proc:2 ~seed ())
                  .Core.Scenario.trace
            | `Game ->
                let res =
                  Core.Adversary.run_write_strong ~n:5 ~max_rounds:40 ~seed ()
                in
                Core.Sched.trace
                  res.Core.Game_alg1.handles.Core.Game_alg1.sched
            | `Abd ->
                (Core.Abd_runs.execute_config ~tracer (abd_config seed))
                  .Core.Abd_runs.trace
            | `Mwabd ->
                (Core.Abd_runs.execute_config ~tracer (mwabd_config seed))
                  .Core.Abd_runs.trace
          in
          Core.Tracer.set_sink tracer None;
          let recorded = Core.Tracer.events tracer in
          let rc = ref 0 in
          let fail fmt =
            Printf.ksprintf
              (fun m ->
                Printf.eprintf "rlin trace: %s\n" m;
                rc := 1)
              fmt
          in
          (match out with
          | None -> ()
          | Some path -> (
              let lines = Core.Trace.json_entries trace in
              match write_jsonl_verified path lines with
              | Ok n ->
                  if path <> "-" then
                    Printf.printf
                      "wrote %d trace entries to %s (each record verified \
                       as written)\n"
                      n path
              | Error e -> fail "--out %s: %s" path e));
          (match events_out with
          | None -> ()
          | Some path -> (
              let lines = List.map Core.Tracer.event_json recorded in
              match write_jsonl_verified path lines with
              | Ok n ->
                  if path <> "-" then
                    Printf.printf "wrote %d flight-recorder events to %s\n" n
                      path
              | Error e -> fail "--events %s: %s" path e));
          (match perfetto with
          | None -> ()
          | Some path -> (
              let doc = Core.Tracer.perfetto_json recorded in
              match Core.Tracer.validate_perfetto doc with
              | Error e -> fail "--perfetto: generated trace is invalid: %s" e
              | Ok n -> (
                  try
                    let oc = open_out path in
                    Fun.protect
                      ~finally:(fun () -> close_out oc)
                      (fun () -> output_string oc (Core.Json.to_string doc));
                    Printf.printf
                      "wrote Perfetto trace (%d trace events) to %s — open \
                       at https://ui.perfetto.dev\n"
                      n path
                  with Sys_error e -> fail "--perfetto %s: %s" path e)));
          (match dot_out with
          | None -> ()
          | Some path -> (
              let target =
                match op_seq with
                | Some s -> Some s
                | None ->
                    (* default: the last completed register operation *)
                    List.fold_left
                      (fun acc (ev : Core.Tracer.event) ->
                        if ev.Core.Tracer.cat = "reg"
                           && ev.Core.Tracer.name = "respond"
                        then Some ev.Core.Tracer.seq
                        else acc)
                      None recorded
              in
              match target with
              | None -> fail "--dot: no register respond event recorded"
              | Some seq -> (
                  try
                    let oc = open_out path in
                    Fun.protect
                      ~finally:(fun () -> close_out oc)
                      (fun () ->
                        output_string oc
                          (Core.Tracer.dot_of_ancestry recorded ~seq));
                    Printf.printf "wrote causal ancestry of event %d to %s\n"
                      seq path
                  with Sys_error e -> fail "--dot %s: %s" path e)));
          if (not wants_recorder) && out = None then
            Printf.printf
              "nothing to write: pass --out, --events, --perfetto, --dot \
               or --follow\n";
          !rc
        end)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a workload and dump its traces: the operation trace \
          (history events, linearization points, coin flips) as verified \
          JSONL, and — for the message-passing sources — the causal \
          flight recorder as Perfetto JSON, event JSONL, a live --follow \
          stream, or a DOT ancestry graph.")
    Term.(
      const run $ source $ out $ perfetto $ events_out $ dot_out $ op_seq
      $ follow $ validate_file $ flight $ idle_ms $ seed_arg)

(* ----- serve: crash-tolerant streaming linearizability checker --------------- *)

exception Serve_io of string

let serve_cmd =
  let in_arg =
    Arg.(
      value & opt string "-"
      & info [ "in" ] ~docv:"FILE"
          ~doc:
            "Trace JSONL input: a file, or $(b,-) for stdin (the default).")
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix-domain socket instead of --in: accept one \
             connection, ingest it to EOF, then unlink the socket.")
  in
  let out_arg =
    Arg.(
      value & opt string "-"
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Verdict JSONL output (verified and flushed per record); \
             $(b,-) for stdout (the default).")
  in
  let ckpt_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Write a resumable checkpoint (atomically) at a globally \
             quiescent point that emitted new verdicts, once the lines fed \
             since the last checkpoint reach the number of objects seen \
             (each checkpoint holds one record per object), and at a clean \
             end of input.")
  in
  let resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Resume from --checkpoint: truncate --out back to the \
             checkpoint's verdict count (discarding any partial final \
             line a kill left), skip the already-consumed input lines, \
             and re-emit the remaining verdicts byte-identically.")
  in
  let follow_arg =
    Arg.(
      value & flag
      & info [ "follow" ]
          ~doc:
            "Tail --in FILE while a writer appends, stopping after \
             --idle-ms without growth (partial final lines are buffered \
             and retried, never mis-parsed).")
  in
  let idle_arg =
    Arg.(
      value & opt int 1000
      & info [ "idle-ms" ] ~docv:"MS"
          ~doc:"With --follow: stop once the input stops growing for this long.")
  in
  let state_budget_arg =
    Arg.(
      value
      & opt int Core.Increment.default_state_budget
      & info [ "state-budget" ] ~docv:"N"
          ~doc:
            "Per-segment reachable-state budget; exceeding it degrades \
             the segment to an explicit unknown verdict.")
  in
  let seg_cap_arg =
    Arg.(
      value & opt int Core.Lincheck.max_ops
      & info [ "segment-cap" ] ~docv:"N"
          ~doc:
            "Per-segment operation cap (at most the checker's hard cap); \
             exceeding it degrades the segment to an unknown verdict.")
  in
  let max_pending_arg =
    Arg.(
      value & opt int 100_000
      & info [ "max-pending" ] ~docv:"N"
          ~doc:
            "Events buffered across all open segments before backpressure \
             sheds the overflowing segment to an unknown verdict.")
  in
  let values_cap_arg =
    Arg.(
      value & opt int 64
      & info [ "values-cap" ] ~docv:"N"
          ~doc:
            "Max entry-set candidates materialized after a failed or \
             unknown segment.")
  in
  let init_arg =
    Arg.(
      value & opt int 0
      & info [ "init" ] ~docv:"V"
          ~doc:"Initial register value (an integer) for every object.")
  in
  let self_check_arg =
    Arg.(
      value & flag
      & info [ "self-check" ]
          ~doc:
            "Buffer the stream and re-decide it with the offline \
             reference checker afterwards; exit 3 on any verdict \
             mismatch.  Incompatible with --resume (the reference needs \
             the whole stream).")
  in
  let summary_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "summary-json" ] ~docv:"FILE"
          ~doc:
            "Write a final serve_summary record (lines, events, \
             quarantined, shed, verdict counts); $(b,-) for stdout.")
  in
  let run in_file socket out ckpt_path resume follow idle_ms state_budget
      seg_cap max_pending values_cap init self_check summary =
    let fail2 msg =
      Printf.eprintf "rlin serve: %s\n" msg;
      2
    in
    if self_check && resume then fail2 "--self-check cannot be combined with --resume"
    else if resume && ckpt_path = None then fail2 "--resume needs --checkpoint FILE"
    else if socket <> None && follow then fail2 "--follow applies to --in FILE, not --socket"
    else if seg_cap < 1 || seg_cap > Core.Lincheck.max_ops then
      fail2
        (Printf.sprintf "--segment-cap %d outside 1..%d" seg_cap
           Core.Lincheck.max_ops)
    else if values_cap < 1 then fail2 "--values-cap must be at least 1"
    else if max_pending < 1 then fail2 "--max-pending must be at least 1"
    else begin
      let config =
        {
          Core.Serve.Engine.init = Core.Value.Int init;
          seg =
            {
              Core.Serve.Segmenter.seg_cap;
              state_budget;
              values_cap;
            };
          max_pending;
        }
      in
      (* --resume reconciliation: load the checkpoint, rewind the verdict
         log to exactly the records it accounts for. *)
      let restored =
        if not resume then Ok None
        else
          match Core.Serve.Checkpoint.load (Option.get ckpt_path) with
          | Error e -> Error (Printf.sprintf "cannot load checkpoint: %s" e)
          | Ok ck ->
              let keep = Core.Serve.Checkpoint.verdicts ck in
              if out = "-" then Ok (Some ck)
              else if Sys.file_exists out then (
                match Core.Serve.Checkpoint.truncate_jsonl ~path:out ~keep with
                | Ok () -> Ok (Some ck)
                | Error e -> Error e)
              else if keep = 0 then Ok (Some ck)
              else
                Error
                  (Printf.sprintf
                     "verdict log %s is missing but the checkpoint expects %d \
                      verdicts"
                     out keep)
      in
      match restored with
      | Error e -> fail2 e
      | Ok restored -> (
          let out_oc =
            if out = "-" then Ok stdout
            else
              match
                if resume then
                  open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 out
                else open_out out
              with
              | oc -> Ok oc
              | exception Sys_error e -> Error e
          in
          match out_oc with
          | Error e -> fail2 e
          | Ok out_oc ->
              let close_out_oc () = if out <> "-" then close_out out_oc in
              let engine_verdicts = ref [] in
              let emit v =
                (match
                   Obs.Export.write_line_verified out_oc
                     (Core.Serve.Verdict.json v)
                 with
                | Ok () -> flush out_oc
                | Error e -> raise (Serve_io e));
                if self_check then engine_verdicts := v :: !engine_verdicts
              in
              let on_quarantine ~line msg =
                Printf.eprintf "rlin serve: quarantined line %d: %s\n%!" line
                  msg
              in
              let engine =
                match restored with
                | Some ck ->
                    Core.Serve.Engine.restore ~config ~emit ~on_quarantine ck
                | None ->
                    Core.Serve.Engine.create ~config ~emit ~on_quarantine ()
              in
              let skip =
                ref
                  (match restored with
                  | Some ck -> ck.Core.Serve.Checkpoint.cursor
                  | None -> 0)
              in
              let last_saved =
                ref (match restored with Some ck -> Core.Serve.Checkpoint.verdicts ck | None -> -1)
              in
              let saved_at = ref (Core.Serve.Engine.lines engine) in
              (* A save renders and syncs every object's record, so a
                 mid-stream save waits until the lines fed since the last
                 one reach the objects held: the saves of a stream cost
                 O(lines) in all, not O(lines x objects). *)
              let maybe_checkpoint ~final =
                match ckpt_path with
                | None -> ()
                | Some path ->
                    let fed = Core.Serve.Engine.lines engine - !saved_at in
                    if
                      Core.Serve.Engine.verdicts engine > !last_saved
                      && (final || fed >= Core.Serve.Engine.objects engine)
                    then (
                      match Core.Serve.Engine.checkpoint engine with
                      | Some ck ->
                          flush out_oc;
                          Core.Serve.Checkpoint.save path ck;
                          last_saved := Core.Serve.Engine.verdicts engine;
                          saved_at := Core.Serve.Engine.lines engine
                      | None -> ())
              in
              let collected = ref [] in
              let feed_line l =
                if !skip > 0 then decr skip
                else begin
                  if self_check then collected := l :: !collected;
                  Core.Serve.Engine.feed_line engine l;
                  maybe_checkpoint ~final:false
                end
              in
              let ingest_channel ic ~follow =
                Option.iter feed_line
                  (tail_lines ic ~follow ~idle_ms (fun l ->
                       feed_line l;
                       true))
              in
              let ingest () =
                match socket with
                | Some path ->
                    let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
                    Fun.protect
                      ~finally:(fun () ->
                        Unix.close sock;
                        if Sys.file_exists path then Unix.unlink path)
                      (fun () ->
                        if Sys.file_exists path then Unix.unlink path;
                        Unix.bind sock (Unix.ADDR_UNIX path);
                        Unix.listen sock 1;
                        let fd, _ = Unix.accept sock in
                        Fun.protect
                          ~finally:(fun () -> Unix.close fd)
                          (fun () ->
                            ingest_channel (Unix.in_channel_of_descr fd)
                              ~follow:false))
                | None ->
                    if in_file = "-" then ingest_channel stdin ~follow:false
                    else
                      let ic = open_in_bin in_file in
                      Fun.protect
                        ~finally:(fun () -> close_in ic)
                        (fun () -> ingest_channel ic ~follow)
              in
              match
                (try
                   ingest ();
                   (* Only checkpoint a clean ending.  If the stream was
                      cut mid-segment, [finish] emits flush verdicts for
                      state a resumed run (seeing the segment whole) must
                      re-derive — checkpointing after the flush would
                      bake that partial view in.  Leaving the checkpoint
                      at the last true quiescent point is what makes
                      kill-then-resume byte-identical. *)
                   let clean_end = Core.Serve.Engine.quiescent engine in
                   Core.Serve.Engine.finish engine;
                   if clean_end then maybe_checkpoint ~final:true;
                   (match summary with
                   | None -> ()
                   | Some path ->
                       let record = Core.Serve.Engine.summary_json engine in
                       if path = "-" then (
                         Obs.Export.write_line stdout record;
                         flush stdout)
                       else Obs.Export.to_file path [ record ]);
                   Ok ()
                 with
                | Serve_io e | Sys_error e -> Error e
                | Unix.Unix_error (err, fn, _) ->
                    Error (Printf.sprintf "%s: %s" fn (Unix.error_message err)))
              with
              | Error e ->
                  close_out_oc ();
                  fail2 e
              | Ok () ->
                  let self_check_rc =
                    if not self_check then 0
                    else begin
                      let r =
                        Core.Serve.Reference.run ~config
                          (List.rev !collected)
                      in
                      let cmp =
                        Core.Serve.Reference.compare_verdicts
                          ~engine:(List.rev !engine_verdicts)
                          ~reference:r.Core.Serve.Reference.verdicts
                      in
                      if Core.Serve.Reference.agreed cmp then begin
                        Printf.eprintf
                          "rlin serve: self-check ok (%d verdicts matched, %d \
                           skipped)\n"
                          cmp.Core.Serve.Reference.matched
                          cmp.Core.Serve.Reference.skipped;
                        0
                      end
                      else begin
                        List.iter
                          (fun (ev, rv) ->
                            let s = function
                              | Some v ->
                                  Obs.Json.to_string (Core.Serve.Verdict.json v)
                              | None -> "(missing)"
                            in
                            Printf.eprintf
                              "rlin serve: self-check MISMATCH\n  engine:    \
                               %s\n  reference: %s\n"
                              (s ev) (s rv))
                          cmp.Core.Serve.Reference.mismatches;
                        3
                      end
                    end
                  in
                  close_out_oc ();
                  if self_check_rc <> 0 then self_check_rc
                  else if Core.Serve.Engine.fail engine > 0 then 1
                  else 0)
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-running streaming linearizability checker: ingest a trace \
          JSONL stream (file, stdin, or Unix socket), segment each \
          object's history at quiescent points, decide segments \
          incrementally with bounded memory, and emit per-segment verdict \
          records.  Corrupt or impossible lines are quarantined (counted, \
          reported, skipped — never fatal); over-budget segments degrade \
          to explicit unknown verdicts; --checkpoint/--resume survive \
          kills with byte-identical output.  Exits 1 if any segment \
          failed, 2 on I/O or config errors, 3 on a --self-check \
          mismatch.")
    Term.(
      const run $ in_arg $ socket_arg $ out_arg $ ckpt_arg $ resume_arg
      $ follow_arg $ idle_arg $ state_budget_arg $ seg_cap_arg
      $ max_pending_arg $ values_cap_arg $ init_arg
      $ self_check_arg $ summary_arg)

(* ----- metrics ----------------------------------------------------------------- *)

let metrics_cmd =
  let source =
    Arg.(
      value
      & opt (Arg.enum [ ("experiments", `Experiments); ("game", `Game); ("abd", `Abd) ]) `Experiments
      & info [ "source" ] ~docv:"SOURCE"
          ~doc:
            "Workload to run before printing the metric registry: \
             $(b,experiments) (the quick battery), $(b,game), $(b,abd).")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the snapshot as a JSONL metrics record.")
  in
  let run source json seed =
    Obs.Metrics.reset Obs.Metrics.global;
    let label =
      match source with
      | `Experiments ->
          ignore (Experiments.all ~quick:true ());
          "experiments-quick"
      | `Game ->
          ignore (Core.Adversary.run_write_strong ~n:5 ~max_rounds:40 ~seed ());
          "game-wsl"
      | `Abd ->
          ignore (Core.Abd_runs.execute_config (abd_config seed));
          "abd"
    in
    Format.printf "%a@." Obs.Metrics.pp Obs.Metrics.global;
    Option.iter
      (fun path ->
        write_jsonl path
          [ Obs.Export.metrics_json ~label (Obs.Metrics.snapshot Obs.Metrics.global) ])
      json;
    0
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run a workload and print every counter, gauge and histogram the \
          instrumented stack recorded (scheduler, trace, network, checkers).")
    Term.(const run $ source $ json $ seed_arg)

(* ----- main ------------------------------------------------------------------ *)

(* ----- check: seeded history batteries through the checker ------------------ *)

let check_cmd =
  let count =
    Arg.(
      value & opt int 50
      & info [ "count" ] ~docv:"N"
          ~doc:"Number of seeded histories to generate and check.")
  in
  let ops =
    Arg.(
      value & opt int 12
      & info [ "ops" ] ~docv:"K" ~doc:"Operations per generated history.")
  in
  let procs =
    Arg.(
      value & opt int 3
      & info [ "procs" ] ~docv:"P"
          ~doc:"Processes per generated history, from 1 to 2^30 - 1.")
  in
  let family =
    Arg.(
      value
      & opt
          (enum
             [ ("mixed", `Mixed); ("atomic", `Atomic); ("arbitrary", `Arbitrary) ])
          `Mixed
      & info [ "family" ] ~docv:"FAMILY"
          ~doc:
            "History family: $(b,atomic) (linearizable by construction), \
             $(b,arbitrary) (may or may not linearize) or $(b,mixed) \
             (alternating).")
  in
  let tree =
    Arg.(
      value & flag
      & info [ "tree" ]
          ~doc:
            "Also run the write strong-linearizability tree check over \
             each history's prefix chain.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write a JSONL report ('-' for stdout): one check_run header \
             (which carries the jobs count and the effective op cap), then \
             one record per history.  Per-history records are identical at \
             every -j that keeps every history under the op cap; only the \
             header differs.")
  in
  let jobs =
    Arg.(
      value
      & opt int (Core.Pool.default_jobs ())
      & info [ "j"; "jobs" ] ~docv:"JOBS"
          ~doc:
            "Set the Too_large op cap to Lincheck.effective_cap $(docv) \
             (default: the machine's recommended domain count).  Every \
             search runs sequentially on one domain whatever $(docv) is; \
             the cap and the check_run header are all that $(docv) \
             changes.")
  in
  let run count ops procs family tree seed jobs json =
    if count < 0 then usage_error "--count must be >= 0";
    if ops < 1 then usage_error "--ops must be >= 1";
    if procs < 1 then usage_error "--procs must be >= 1";
    if procs >= 1 lsl 30 then usage_error "--procs must be < 1073741824 (2^30)";
    let cap = Core.Lincheck.effective_cap ~jobs in
    let rand =
      Random.State.make [| Int64.to_int seed land 0x3FFFFFFF; 0xC0FFEE |]
    in
    let spec =
      { Core.Histgen.default_spec with n_ops = ops; n_procs = procs }
    in
    let init = spec.Core.Histgen.init in
    let n_ok = ref 0 and n_fail = ref 0 and n_large = ref 0 in
    let tree_ok = ref 0 and tree_fail = ref 0 and tree_large = ref 0 in
    let rows = ref [] in
    let emit row = rows := row :: !rows in
    for i = 0 to count - 1 do
      let hist =
        match family with
        | `Atomic -> Core.Histgen.atomic_history spec rand
        | `Arbitrary -> Core.Histgen.arbitrary_history spec rand
        | `Mixed ->
            if i mod 2 = 0 then Core.Histgen.atomic_history spec rand
            else Core.Histgen.arbitrary_history spec rand
      in
      let verdict, witness =
        match Core.Lincheck.prep ~cap ~init hist with
        | p -> (
            match Core.Lincheck.decide_prepped ~jobs p with
            | Some w ->
                incr n_ok;
                ( "ok",
                  Core.Json.List
                    (List.map
                       (fun (o : Core.Op.t) -> Core.Json.Int o.id)
                       w) )
            | None ->
                incr n_fail;
                ("fail", Core.Json.Null))
        | exception Core.Lincheck.Too_large { n; cap } ->
            incr n_large;
            ( "too_large",
              Core.Json.Obj
                [ ("n", Core.Json.Int n); ("cap", Core.Json.Int cap) ] )
      in
      emit
        (Core.Json.Obj
           [
             ("kind", Core.Json.Str "check");
             ("index", Core.Json.Int i);
             ("len", Core.Json.Int (Core.Hist.length hist));
             ("verdict", Core.Json.Str verdict);
             ("witness", witness);
           ]);
      if tree then begin
        let tverdict, torders =
          match
            Core.Treecheck.write_strong_witness ~init
              (Core.Treecheck.of_prefixes hist)
          with
          | Some assign ->
              incr tree_ok;
              ( "ok",
                Core.Json.List
                  (List.map
                     (fun (_, order) ->
                       Core.Json.List
                         (List.map (fun id -> Core.Json.Int id) order))
                     assign) )
          | None ->
              incr tree_fail;
              ("fail", Core.Json.Null)
          | exception Core.Lincheck.Too_large { n; cap } ->
              incr tree_large;
              ( "too_large",
                Core.Json.Obj
                  [ ("n", Core.Json.Int n); ("cap", Core.Json.Int cap) ] )
        in
        emit
          (Core.Json.Obj
             [
               ("kind", Core.Json.Str "check_tree");
               ("index", Core.Json.Int i);
               ("verdict", Core.Json.Str tverdict);
               ("orders", torders);
             ])
      end
    done;
    Printf.printf
      "check: %d histories (seed %Ld, jobs %d, cap %d): %d linearizable, %d \
       not, %d too large\n"
      count seed jobs cap !n_ok !n_fail !n_large;
    if tree then
      Printf.printf
        "check: prefix trees: %d write-strong, %d not, %d too large\n"
        !tree_ok !tree_fail !tree_large;
    Option.iter
      (fun path ->
        let header =
          Core.Json.Obj
            [
              ("kind", Core.Json.Str "check_run");
              ("count", Core.Json.Int count);
              ("ops", Core.Json.Int ops);
              ("procs", Core.Json.Int procs);
              ("seed", Core.Json.Str (Int64.to_string seed));
              ("jobs", Core.Json.Int jobs);
              ("effective_cap", Core.Json.Int cap);
            ]
        in
        write_jsonl path (header :: List.rev !rows))
      json;
    0
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Generate seeded histories and decide their linearizability \
          (optionally plus the prefix-tree write strong-linearizability \
          check).  Both searches are sequential.  -j only sets the \
          Too_large op cap (Lincheck.effective_cap), which the report \
          header records.")
    Term.(
      const run $ count $ ops $ procs $ family $ tree $ seed_arg $ jobs $ json)

(* ----- fleet ----------------------------------------------------------------- *)

let fleet_cmd =
  let shards =
    Arg.(
      value & opt int 4
      & info [ "shards" ] ~docv:"N"
          ~doc:"Register shards (independent ABD/MW-ABD groups).")
  in
  let n =
    Arg.(
      value & opt int 3
      & info [ "n" ] ~docv:"K" ~doc:"Replica nodes per shard.")
  in
  let proto =
    Arg.(
      value
      & opt (enum [ ("abd", Core.Fleet.Sw); ("mwabd", Core.Fleet.Mw) ])
          Core.Fleet.Sw
      & info [ "proto" ] ~docv:"PROTO"
          ~doc:"Shard register: $(b,abd) (one writer) or $(b,mwabd).")
  in
  let slots =
    Arg.(
      value & opt int 4
      & info [ "slots" ] ~docv:"S"
          ~doc:
            "Client fiber slots per shard — the fixed pool the \
             generational sessions recycle through.")
  in
  let ops =
    Arg.(
      value & opt int 100_000
      & info [ "ops" ] ~docv:"M"
          ~doc:"Total client operations across the fleet.")
  in
  let clients =
    Arg.(
      value
      & opt (some int) None
      & info [ "clients" ] ~docv:"C"
          ~doc:
            "Simulated client sessions to drive through the slots \
             (sets the session length to ~OPS/$(docv); \
             $(b,--clients 1000000 --ops 1000000) is the \
             one-op-per-client churn extreme).  Overrides \
             $(b,--session-len).")
  in
  let session_len =
    Arg.(
      value & opt int 4
      & info [ "session-len" ] ~docv:"L"
          ~doc:"Operations per client session before its slot recycles.")
  in
  let mix =
    Arg.(
      value & opt float 0.2
      & info [ "mix" ] ~docv:"P"
          ~doc:"Write fraction of the op mix, in [0,1].")
  in
  let keys =
    Arg.(
      value & opt int 64
      & info [ "keys" ] ~docv:"K"
          ~doc:"Key-space size (key -> shard by hash).")
  in
  let persist =
    Arg.(
      value
      & opt (enum [ ("every", `Every); ("never", `Never) ]) `Every
      & info [ "persist" ] ~docv:"POLICY"
          ~doc:"Replica sync-point policy (see $(b,rlin chaos)).")
  in
  let batch_window =
    Arg.(
      value & opt int 0
      & info [ "batch-window" ] ~docv:"W"
          ~doc:
            "Per-destination delivery batching: coalesce same-destination \
             messages found among the oldest $(docv) in-flight positions \
             into one delivery attempt (0 disables).")
  in
  let batch_max =
    Arg.(
      value & opt int 1
      & info [ "batch-max" ] ~docv:"B"
          ~doc:"Max messages moved per delivery attempt (1 disables).")
  in
  let sample =
    Arg.(
      value & opt int 1
      & info [ "sample" ] ~docv:"S"
          ~doc:
            "Stream-check the histories of the first $(docv) shards with \
             the incremental linearizability checker, each event as it is \
             recorded (the rest drop theirs; no shard keeps its trace, so \
             memory stays flat either way).")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the fleet report as one JSONL record ('-' for stdout); \
             carries no wall-clock, so reports diff clean across -j.")
  in
  let run shards n proto slots ops clients session_len mix keys faults
      crash_at recoveries persist batch_window batch_max sample seed jobs
      json =
    let session_len =
      match clients with
      | None -> session_len
      | Some c when c >= 1 -> max 1 ((ops + c - 1) / c)
      | Some _ -> usage_error "--clients must be >= 1"
    in
    let plan =
      {
        (Option.value faults ~default:Core.Faults.none) with
        Core.Faults.crash_at;
        recover_at = recoveries;
      }
    in
    let config =
      {
        Core.Fleet.shards;
        n;
        proto;
        slots;
        ops;
        session_len;
        write_ratio = mix;
        keys;
        faults = plan;
        persist;
        batch_window;
        batch_max;
        seed;
        sample;
      }
    in
    or_usage_error (fun () -> Core.Fleet.validate config);
    let t0 = Obs.Span.now_ms () in
    let report = Core.Fleet.run ~jobs config in
    let wall_ms = Obs.Span.now_ms () -. t0 in
    Format.printf "%a@." Core.Fleet.pp report;
    (* wall clock to stdout only: the report itself stays -j-diffable *)
    Printf.printf "ops/sec: %.0f (%.0f ms wall, -j %d)\n"
      (float_of_int report.Core.Fleet.total_ops /. (wall_ms /. 1000.))
      wall_ms jobs;
    Option.iter
      (fun path -> write_jsonl path [ Core.Fleet.report_json report ])
      json;
    if report.Core.Fleet.completed && report.Core.Fleet.total_fails = 0 then 0
    else 1
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Run the fleet-scale workload engine: a key-space of register \
          shards (key -> shard by hash, each an independent ABD/MW-ABD \
          group), millions of short-lived client sessions recycled \
          through fixed fiber slots, optional per-destination message \
          batching, and per-shard history sampling through the streaming \
          linearizability checker.  Exits non-zero if any shard stalled \
          or a sampled segment failed the check.")
    Term.(
      const run $ shards $ n $ proto $ slots $ ops $ clients $ session_len
      $ mix $ keys $ faults_term
      $ crash_arg
          ~doc:
            "Comma-separated NODE@STEP crash schedule applied to every \
             shard's node set (crashed nodes must leave a majority; for \
             $(b,abd) node 0 is the writer client and must survive)."
      $ recover_arg $ persist $ batch_window $ batch_max
      $ sample $ seed_arg $ jobs_arg $ json)

let () =
  let doc =
    "Reproduction of 'On Register Linearizability and Termination' (PODC 2021)."
  in
  let info = Cmd.info "rlin" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            experiments_cmd;
            game_cmd;
            fig3_cmd;
            fig4_cmd;
            abd_cmd;
            mwabd_cmd;
            check_cmd;
            chaos_cmd;
            fleet_cmd;
            consensus_cmd;
            trace_cmd;
            serve_cmd;
            metrics_cmd;
          ]))
