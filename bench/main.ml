(* Benchmark harness: regenerates every experiment of the paper.

   Part 1 (Bechamel): one micro-benchmark per experiment family, measuring
   the wall-clock cost of the artifact it exercises — the E8 comparison
   (Algorithm 2's vector timestamps vs Algorithm 4's Lamport clocks vs the
   atomic baseline) across register sizes, the adversary rounds of E1/E2,
   the checkers of E3-E5, the ABD workload of E6 and the A' composition of
   E7.

   Part 2: the full experiment battery E1-E11 (paper-shaped tables with
   claim / expected / measured / PASS), as indexed in DESIGN.md and
   recorded in EXPERIMENTS.md.

     dune exec bench/main.exe
     dune exec bench/main.exe -- --json BENCH_pr1.json   # also write JSONL

   With --json FILE, every Bechamel estimate is written as a
   {"kind":"bench",...} JSONL record and every battery report as a
   {"kind":"report",...} record — the regression-trackable form of this
   run (see DESIGN.md "Observability").
*)

open Bechamel
open Toolkit

(* ----- helpers to run small simulations inside a benchmark fn -------------- *)

let run_mwmr_ops ~make ~write ~read ~n ~ops () =
  let sched = Core.Sched.create ~seed:7L () in
  let r = make sched in
  let done_ = ref false in
  Core.Sched.spawn sched ~pid:1 (fun () ->
      for k = 1 to ops do
        write r 1 k;
        ignore (read r 1)
      done;
      done_ := true);
  while not !done_ do
    ignore (Core.Sched.step sched ~pid:1)
  done;
  ignore n

let alg2_ops n ops () =
  run_mwmr_ops ~n ~ops
    ~make:(fun sched -> Core.wsl_mwmr sched ~name:"R" ~n ~init:0)
    ~write:(fun r p v -> Core.Wsl_register.write r ~proc:p v)
    ~read:(fun r p -> Core.Wsl_register.read r ~proc:p)
    ()

let alg4_ops n ops () =
  run_mwmr_ops ~n ~ops
    ~make:(fun sched -> Core.lamport_mwmr sched ~name:"R" ~n ~init:0)
    ~write:(fun r p v -> Core.Lamport_register.write r ~proc:p v)
    ~read:(fun r p -> Core.Lamport_register.read r ~proc:p)
    ()

let atomic_ops ops () =
  let sched = Core.Sched.create ~seed:7L () in
  let r =
    Core.adversarial_register sched ~name:"R" ~init:(Core.Value.Int 0)
      ~mode:Core.Adv_register.Atomic
  in
  let done_ = ref false in
  Core.Sched.spawn sched ~pid:1 (fun () ->
      for k = 1 to ops do
        Core.Adv_register.write r ~proc:1 (Core.Value.Int k);
        ignore (Core.Adv_register.read r ~proc:1)
      done;
      done_ := true);
  while not !done_ do
    ignore (Core.Sched.step sched ~pid:1)
  done

(* a fixed random Alg2 run reused by the checker benchmarks *)
let checker_run =
  lazy
    (Core.Scenario.random_alg2_run ~n:3 ~writes_per_proc:2 ~reads_per_proc:2
       ~seed:5L ())

(* ----- Part 1b: checker hot-path throughput --------------------------------

   The perf gate for the allocation-free checker loops: fixed-seed history
   sets, rates computed from the checker's own counters (linchk.states,
   treecheck.nodes) over a timed window.  Rows are written as
   {"kind":"bench","name":"hot/...","per_sec":...} and diffed across
   commits by scripts/bench_compare. *)

let hot_rng seed = Random.State.make [| 0x5EED; seed |]

let gen_histories spec gen ~count ~seed =
  let rand = hot_rng seed in
  List.init count (fun _ -> gen spec rand)

(* Checker-heavy set: concurrent atomic histories (always linearizable —
   the DFS must find a witness) and arbitrary histories (often not — the
   DFS must exhaust the state space through the memo set). *)
let hot_decide_histories =
  lazy
    (gen_histories
       { Core.Histgen.default_spec with n_ops = 14; n_procs = 4 }
       Core.Histgen.atomic_history ~count:12 ~seed:1
    @ gen_histories
        { Core.Histgen.default_spec with n_ops = 12; n_procs = 4 }
        Core.Histgen.arbitrary_history ~count:12 ~seed:2)

let hot_trees =
  lazy
    (gen_histories
       { Core.Histgen.default_spec with n_ops = 8; n_procs = 3 }
       Core.Histgen.atomic_history ~count:8 ~seed:3
    |> List.map Core.Treecheck.of_prefixes)

(* Parallel-driver set, recorded at -j 1 and -j 2.  Every search here
   ends within 78 DFS states, far inside [Lincheck]'s sequential budget
   of 4,096, so the -j 2 row measures what a small search costs through
   the [jobs] entry point: no pool hand-off. *)
let hot_par_histories =
  lazy
    (gen_histories
       { Core.Histgen.default_spec with n_ops = 18; n_procs = 5 }
       Core.Histgen.atomic_history ~count:4 ~seed:4
    @ gen_histories
        { Core.Histgen.default_spec with n_ops = 16; n_procs = 5 }
        Core.Histgen.arbitrary_history ~count:4 ~seed:5)

(* Streaming-checker set: the decide workload concatenated into one
   multi-segment JSONL stream (times shifted, op ids offset), replayed
   through a fresh serve engine per pass — measures the full ingest path
   (parse, segment, incremental check, verdict). *)
let hot_serve_lines =
  lazy
    (let hists =
       gen_histories
         { Core.Histgen.default_spec with n_ops = 12; n_procs = 4 }
         Core.Histgen.atomic_history ~count:8 ~seed:7
       @ gen_histories
           { Core.Histgen.default_spec with n_ops = 10; n_procs = 4 }
           Core.Histgen.arbitrary_history ~count:4 ~seed:8
     in
     let lines = ref [] in
     let toff = ref 0 and idoff = ref 0 in
     List.iter
       (fun h ->
         let maxt = ref 0 and maxid = ref 0 in
         List.iter
           (fun { Core.Event.time; event } ->
             let time = time + !toff in
             maxt := max !maxt time;
             let ev =
               match event with
               | Core.Event.Invoke { op_id; proc; obj; kind } ->
                   let op_id = op_id + !idoff in
                   maxid := max !maxid op_id;
                   Core.Serve.Ingest.Invoke { op_id; proc; obj; kind }
               | Core.Event.Respond { op_id; result } ->
                   let op_id = op_id + !idoff in
                   maxid := max !maxid op_id;
                   Core.Serve.Ingest.Respond { op_id; result }
             in
             lines :=
               Obs.Json.to_string (Core.Serve.Ingest.event_json ~time ev)
               :: !lines)
           (Core.Hist.events h);
         toff := !maxt + 1;
         idoff := !maxid + 1)
       hists;
     List.rev !lines)

(* Run [pass] repeatedly for [window_ms], then report
   counter-increments-per-second read from a private registry. *)
let measure_rate ~name ~counter ~window_ms pass =
  pass (Obs.Metrics.create ());
  (* warmup *)
  let m = Obs.Metrics.create () in
  let t0 = Obs.Span.now_ms () in
  let reps = ref 0 in
  while Obs.Span.now_ms () -. t0 < window_ms do
    pass m;
    incr reps
  done;
  let dt_s = (Obs.Span.now_ms () -. t0) /. 1000. in
  let total = Obs.Metrics.counter m counter in
  let per_sec = float_of_int total /. dt_s in
  Printf.printf "%-36s %16.0f %s/sec  (%d passes)\n" name per_sec counter
    !reps;
  Obs.Json.Obj
    [
      ("kind", Obs.Json.Str "bench");
      ("name", Obs.Json.Str name);
      ("per_sec", Obs.Json.Float per_sec);
      ("counter", Obs.Json.Str counter);
      ("passes", Obs.Json.Int !reps);
    ]

(* Fleet engine rows: a small sharded workload under link faults, with
   and without delivery batching — the ops/sec CI gate for E15.  The
   full-scale recording path is [--fleet OPS] below. *)
let fleet_bench_config ~batched =
  {
    Core.Fleet.default with
    Core.Fleet.shards = 2;
    ops = 4_000;
    session_len = 4;
    keys = 64;
    faults =
      { Core.Faults.none with Core.Faults.drop = 0.05; duplicate = 0.02 };
    seed = 10L;
    sample = 1;
    batch_window = (if batched then 8 else 0);
    batch_max = (if batched then 8 else 1);
  }

let throughput_rows ~window_ms () =
  let init = Core.Value.Int 0 in
  (* a disarmed flight recorder threaded through the same decide workload:
     the row must track hot/decide within noise, proving the tracing
     instrumentation costs one branch when off (DESIGN.md §13) *)
  let disarmed = Core.Tracer.create ~capacity:256 ~armed:false () in
  [
    measure_rate ~name:"hot/decide-states-per-sec" ~counter:"linchk.states"
      ~window_ms (fun m ->
        List.iter
          (fun h -> ignore (Core.Lincheck.witness ~metrics:m ~init h))
          (Lazy.force hot_decide_histories));
    measure_rate ~name:"hot/tracer-overhead-states-per-sec"
      ~counter:"linchk.states" ~window_ms (fun m ->
        List.iter
          (fun h ->
            ignore (Core.Lincheck.witness ~metrics:m ~tracer:disarmed ~init h))
          (Lazy.force hot_decide_histories));
    measure_rate ~name:"hot/treecheck-nodes-per-sec"
      ~counter:"treecheck.nodes" ~window_ms (fun m ->
        List.iter
          (fun t -> ignore (Core.Treecheck.write_strong ~metrics:m ~init t))
          (Lazy.force hot_trees));
    measure_rate ~name:"hot/serve-ingest-events-per-sec"
      ~counter:"serve.events" ~window_ms (fun m ->
        let engine = Core.Serve.Engine.create ~metrics:m ~emit:ignore () in
        List.iter
          (Core.Serve.Engine.feed_line engine)
          (Lazy.force hot_serve_lines);
        Core.Serve.Engine.finish engine);
    (* a full ABD run through two crash + state-transfer recoveries with
       nothing durable: the recovery path (restart, incarnation bump,
       read-back handshake) priced per scheduler step *)
    measure_rate ~name:"e14/abd-recovery-steps-per-sec"
      ~counter:"sched.steps" ~window_ms (fun m ->
        ignore
          (Core.Abd_runs.execute_config ~metrics:m
             {
               Core.Run_config.default with
               Core.Run_config.seed = 9L;
               persist = `Never;
               faults =
                 {
                   Core.Faults.none with
                   Core.Faults.crash_at = [ (60, 3); (120, 4) ];
                   recover_at = [ (110, 3); (170, 4) ];
                 };
             }));
    measure_rate ~name:"hot/incremental-segment-states-per-sec"
      ~counter:"linchk.inc.states" ~window_ms (fun m ->
        List.iter
          (fun h ->
            let inc = Core.Increment.create ~metrics:m ~entry:[ init ] () in
            List.iter
              (fun { Core.Event.time; event } ->
                match event with
                | Core.Event.Invoke { op_id; kind; _ } ->
                    Core.Increment.invoke inc ~id:op_id ~kind ~time
                | Core.Event.Respond { op_id; result } ->
                    Core.Increment.respond inc ~id:op_id ~result ~time)
              (Core.Hist.events h);
            ignore (Core.Increment.outcome inc))
          (Lazy.force hot_decide_histories));
    measure_rate ~name:"e15/fleet-quick-unbatched-ops-per-sec"
      ~counter:"trace.responds" ~window_ms (fun m ->
        ignore (Core.Fleet.run ~metrics:m (fleet_bench_config ~batched:false)));
    measure_rate ~name:"e15/fleet-quick-batched-ops-per-sec"
      ~counter:"trace.responds" ~window_ms (fun m ->
        ignore (Core.Fleet.run ~metrics:m (fleet_bench_config ~batched:true)));
  ]
  @ List.map
      (fun jobs ->
        measure_rate
          ~name:(Printf.sprintf "hot/decide-par-j%d-states-per-sec" jobs)
          ~counter:"linchk.states" ~window_ms (fun m ->
            List.iter
              (fun h -> ignore (Core.Lincheck.witness ~metrics:m ~jobs ~init h))
              (Lazy.force hot_par_histories)))
      [ 1; 2 ]

let tests =
  [
    (* --- E1: a Theorem-6 adversary round --------------------------------- *)
    Test.make ~name:"e1/thm6-adversary-5-rounds"
      (Staged.stage (fun () ->
           ignore (Core.Adversary.run_linearizable ~n:5 ~rounds:5 ~seed:17L ())));
    (* --- E2: a full WSL game (gate) to termination ------------------------ *)
    Test.make ~name:"e2/wsl-game-to-termination"
      (Staged.stage (fun () ->
           ignore
             (Core.Adversary.run_write_strong ~n:5 ~max_rounds:40 ~seed:23L ())));
    (* --- E8: per-op cost of the register constructions ------------------- *)
    Test.make ~name:"e8/atomic-20ops" (Staged.stage (atomic_ops 20));
    Test.make ~name:"e8/alg4-n4-20ops" (Staged.stage (alg4_ops 4 20));
    Test.make ~name:"e8/alg2-n4-20ops" (Staged.stage (alg2_ops 4 20));
    Test.make ~name:"e8/alg4-n16-20ops" (Staged.stage (alg4_ops 16 20));
    Test.make ~name:"e8/alg2-n16-20ops" (Staged.stage (alg2_ops 16 20));
    (* --- E3: Algorithm 3 (the WSL function) on a recorded run ------------- *)
    Test.make ~name:"e3/alg3-linearize"
      (Staged.stage (fun () ->
           let run = Lazy.force checker_run in
           ignore
             (Core.Wsl_function.linearize run.Core.Scenario.trace ~obj:"R")));
    (* --- E5: the exact linearizability checker ---------------------------- *)
    Test.make ~name:"e5/lincheck-12ops"
      (Staged.stage (fun () ->
           let run = Lazy.force checker_run in
           ignore
             (Core.Lincheck.check ~init:(Core.Value.Int 0)
                run.Core.Scenario.history)));
    (* --- E4: the history-tree refutation ----------------------------------- *)
    Test.make ~name:"e4/fig4-tree-refutation"
      (Staged.stage (fun () -> ignore (Core.Scenario.fig4 ())));
    (* --- E6: one ABD workload under random asynchrony ---------------------- *)
    Test.make ~name:"e6/abd-workload"
      (Staged.stage (fun () ->
           ignore
             (Core.Abd_runs.execute { Core.Abd_runs.default with seed = 9L })));
    (* --- E7: A' end-to-end (gate + consensus) ------------------------------ *)
    Test.make ~name:"e7/cor9-live"
      (Staged.stage (fun () ->
           ignore
             (Core.Cor9.run_live
                { n = 4; gate_rounds = 40; consensus_max_rounds = 200; seed = 3L }
                ~inputs:(fun pid -> pid mod 2))));
    (* --- E9: the mixed-mode ablation game ----------------------------------- *)
    Test.make ~name:"e9/ablation-r1-lin-aux-wsl"
      (Staged.stage (fun () ->
           ignore (Core.Adversary.run_linearizable_r1_only ~n:5 ~rounds:5 ~seed:61L ())));
    (* --- E10: multi-writer ABD workload + counterexample --------------------- *)
    Test.make ~name:"e10/mwabd-workload"
      (Staged.stage (fun () ->
           ignore
             (Core.Abd_runs.execute_mw ~n:3 ~writers:[ 0; 1 ] ~writes_each:2
                ~readers:[ 2 ] ~reads_each:2 ~seed:11L ())));
    Test.make ~name:"e10/mwabd-tree-refutation"
      (Staged.stage (fun () -> ignore (Core.Mwabd_scenario.run ())));
    (* --- E11: the same ABD workload under a lossy, duplicating link -------- *)
    Test.make ~name:"e11/abd-workload-faulty"
      (Staged.stage (fun () ->
           ignore
             (Core.Abd_runs.execute
                {
                  Core.Abd_runs.default with
                  seed = 9L;
                  faults =
                    {
                      Core.Faults.none with
                      Core.Faults.drop = 0.15;
                      duplicate = 0.05;
                      delay = 0.05;
                      delay_bound = 4;
                    };
                })));
    (* --- E14: an ABD workload through a crash + state-transfer recovery ----- *)
    Test.make ~name:"e14/abd-recovery"
      (Staged.stage (fun () ->
           ignore
             (Core.Abd_runs.execute_config
                {
                  Core.Run_config.default with
                  Core.Run_config.seed = 9L;
                  persist = `Never;
                  faults =
                    {
                      Core.Faults.none with
                      Core.Faults.crash_at = [ (60, 3); (120, 4) ];
                      recover_at = [ (110, 3); (170, 4) ];
                    };
                })));
  ]

let benchmark () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"rlin" ~fmt:"%s %s" tests)
  in
  List.map (fun i -> Analyze.all ols i raw) instances

let json_out () =
  let rec scan = function
    | "--json" :: path :: _ -> Some path
    | _ :: rest -> scan rest
    | [] -> None
  in
  scan (Array.to_list Sys.argv)

(* [-j N]: domains for the battery's Monte-Carlo loops (default: all). *)
let jobs_opt () =
  let rec scan = function
    | "-j" :: n :: _ -> (
        match int_of_string_opt n with
        | Some n when n >= 1 -> n
        | _ ->
            prerr_endline "bench: -j expects a positive integer";
            exit 2)
    | _ :: rest -> scan rest
    | [] -> Core.Pool.default_jobs ()
  in
  scan (Array.to_list Sys.argv)

(* [--quick]: only the checker-throughput rows (Part 1b), with a short
   measurement window — the CI perf gate. *)
let quick_opt () = Array.exists (String.equal "--quick") Sys.argv

(* [--fleet OPS]: the E15 recording path — one full-scale fleet run at
   OPS total client operations (E15's config: 8 ABD shards, one-op
   sessions, link faults + a crash/recovery pair), batched and
   unbatched, printing ops/sec and the process max RSS; with --json the
   two rows are what BENCH_pr10.json records at the 1M scale. *)
let fleet_opt () =
  let rec scan = function
    | "--fleet" :: n :: _ -> (
        match int_of_string_opt n with
        | Some n when n >= 1 -> Some n
        | _ ->
            prerr_endline "bench: --fleet expects a positive op count";
            exit 2)
    | _ :: rest -> scan rest
    | [] -> None
  in
  scan (Array.to_list Sys.argv)

(* VmHWM from /proc/self/status: the high-water RSS, the flat-memory
   evidence the fleet rows carry (0 where /proc is unavailable). *)
let max_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rss = ref 0 in
      (try
         while true do
           let line = input_line ic in
           try Scanf.sscanf line "VmHWM: %d kB" (fun k -> rss := k) with
           | Scanf.Scan_failure _ | Failure _ | End_of_file -> ()
         done
       with End_of_file -> ());
      close_in ic;
      !rss

let scale_label ops =
  if ops mod 1_000_000 = 0 then Printf.sprintf "%dM" (ops / 1_000_000)
  else if ops mod 1_000 = 0 then Printf.sprintf "%dk" (ops / 1_000)
  else string_of_int ops

let fleet_rows ~jobs ~ops =
  let base =
    {
      Core.Fleet.default with
      Core.Fleet.shards = 8;
      ops;
      slots = 4;
      session_len = 1;
      write_ratio = 0.2;
      keys = 256;
      faults =
        {
          Core.Faults.none with
          Core.Faults.drop = 0.05;
          duplicate = 0.02;
          delay = 0.05;
          delay_bound = 4;
          crash_at = [ (400, 2) ];
          recover_at = [ (900, 2) ];
        };
      persist = `Every;
      seed = 15L;
      sample = 2;
    }
  in
  let row suffix cfg =
    let m = Obs.Metrics.create () in
    let t0 = Obs.Span.now_ms () in
    let r = Core.Fleet.run ~jobs ~metrics:m cfg in
    let dt_s = (Obs.Span.now_ms () -. t0) /. 1000. in
    let per_sec = float_of_int r.Core.Fleet.total_ops /. dt_s in
    let rss = max_rss_kb () in
    let ok = r.Core.Fleet.completed && r.Core.Fleet.total_fails = 0 in
    let name =
      Printf.sprintf "e15/fleet-%s-%s-ops-per-sec" (scale_label ops) suffix
    in
    Printf.printf
      "%-40s %12.0f ops/sec  %.2f attempts/op, %d sessions, %d segments \
       (%d fail, %d unknown), max RSS %d kB, %s\n%!"
      name per_sec
      (Core.Fleet.attempts_per_op r)
      r.Core.Fleet.total_sessions r.Core.Fleet.total_segments
      r.Core.Fleet.total_fails r.Core.Fleet.total_unknowns rss
      (if ok then "ok" else "FAILED");
    if not ok then exit 1;
    Obs.Json.Obj
      [
        ("kind", Obs.Json.Str "bench");
        ("name", Obs.Json.Str name);
        ("per_sec", Obs.Json.Float per_sec);
        ("counter", Obs.Json.Str "trace.responds");
        ("passes", Obs.Json.Int 1);
        ("ops", Obs.Json.Int r.Core.Fleet.total_ops);
        ("sessions", Obs.Json.Int r.Core.Fleet.total_sessions);
        ("attempts_per_op", Obs.Json.Float (Core.Fleet.attempts_per_op r));
        ("coalesced", Obs.Json.Int r.Core.Fleet.total_coalesced);
        ("segments", Obs.Json.Int r.Core.Fleet.total_segments);
        ("seg_fails", Obs.Json.Int r.Core.Fleet.total_fails);
        ("max_rss_kb", Obs.Json.Int rss);
      ]
  in
  (* let-bound so the unbatched run goes first: VmHWM is monotone, so
     row order is what makes the two RSS figures comparable *)
  let unbatched = row "unbatched" base in
  let batched =
    row "batched" { base with Core.Fleet.batch_window = 8; batch_max = 8 }
  in
  [ unbatched; batched ]

let () =
  let json = json_out () in
  let jobs = jobs_opt () in
  (match fleet_opt () with
  | None -> ()
  | Some ops ->
      Printf.printf "=== E15 fleet recording (%s ops, -j %d) ===\n"
        (scale_label ops) jobs;
      let rows = fleet_rows ~jobs ~ops in
      (match json with
      | None -> ()
      | Some path ->
          Obs.Export.to_file path rows;
          Printf.printf "wrote %d JSONL records to %s\n" (List.length rows)
            path);
      exit 0);
  if quick_opt () then begin
    print_endline "=== checker hot-path throughput (--quick) ===";
    let rows = throughput_rows ~window_ms:500. () in
    (match json with
    | None -> ()
    | Some path ->
        Obs.Export.to_file path rows;
        Printf.printf "wrote %d JSONL records to %s\n" (List.length rows) path);
    exit 0
  end;
  begin
  print_endline "=== Part 1: micro-benchmarks (Bechamel, monotonic clock) ===";
  let bench_rows =
    match benchmark () with
    | [ tbl ] ->
        let rows =
          Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) tbl []
          |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        in
        Printf.printf "%-36s %16s %10s\n" "benchmark" "ns/run" "r^2";
        List.map
          (fun (name, ols) ->
            let ns_per_run =
              match Analyze.OLS.estimates ols with
              | Some (e :: _) -> Some e
              | _ -> None
            in
            let r_square = Analyze.OLS.r_square ols in
            let show fmt = function
              | Some v -> Printf.sprintf fmt v
              | None -> "-"
            in
            Printf.printf "%-36s %16s %10s\n" name
              (show "%16.0f" ns_per_run)
              (show "%10.4f" r_square);
            Obs.Export.bench_json ~name ~ns_per_run ~r_square)
          rows
    | _ -> assert false
  in
  print_endline "";
  print_endline "=== Part 1b: checker hot-path throughput ===";
  let hot_rows = throughput_rows ~window_ms:1000. () in
  print_endline "";
  Printf.printf "=== Part 2: experiment battery (paper-shaped tables, -j %d) ===\n"
    jobs;
  let battery_t0 = Obs.Span.now_ms () in
  let reports = Experiments.all ~jobs ~quick:false () in
  let battery_ms = Obs.Span.now_ms () -. battery_t0 in
  List.iter (fun r -> Format.printf "%a@." Experiments.pp_report r) reports;
  let passed = List.length (List.filter (fun r -> r.Experiments.pass) reports) in
  Format.printf "=== %d/%d experiments reproduce the paper's claims ===@."
    passed (List.length reports);
  Printf.printf "battery wall time: %.0f ms (-j %d)\n" battery_ms jobs;
  match json with
  | None -> ()
  | Some path ->
      let battery_row =
        Obs.Json.Obj
          [
            ("kind", Obs.Json.Str "battery");
            ("jobs", Obs.Json.Int jobs);
            ("wall_ms", Obs.Json.Float battery_ms);
          ]
      in
      let rows =
        bench_rows @ hot_rows
        @ List.map Experiments.report_json reports
        @ [ battery_row ]
      in
      Obs.Export.to_file path rows;
      Printf.printf "wrote %d JSONL records to %s\n" (List.length rows) path
  end
