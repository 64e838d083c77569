type report = {
  id : string;
  claim : string;
  expected : string;
  measured : string;
  pass : bool;
  metrics : (string * float) list;
}

(* Run an experiment body against a registry of its own: the report's
   metrics are the experiment's own headline numbers ([extra]) plus
   everything the body recorded into that registry (scheduler steps,
   coins, checker states, op latencies…), so a report does not depend on
   what ran before it. *)
let measured_report ~id ~claim ~expected body =
  let registry = Obs.Metrics.create () in
  let t0 = Unix.gettimeofday () in
  let measured, pass, extra = body ~metrics:registry in
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  let metrics =
    (("wall_ms", wall_ms) :: extra) @ Obs.Metrics.flat registry
  in
  { id; claim; expected; measured; pass; metrics }

let pp_report fmt r =
  let headline =
    match r.metrics with
    | [] -> ""
    | ms ->
        let shown = List.filteri (fun i _ -> i < 6) ms in
        Format.asprintf "@,metrics:  %s%s"
          (String.concat ", "
             (List.map (fun (k, v) -> Printf.sprintf "%s=%g" k v) shown))
          (if List.length ms > List.length shown then
             Printf.sprintf " (+%d more)" (List.length ms - List.length shown)
           else "")
  in
  Format.fprintf fmt
    "@[<v>--- %s %s@,claim:    %s@,expected: %s@,measured: %s%s@,@]" r.id
    (if r.pass then "[PASS]" else "[FAIL]")
    r.claim r.expected r.measured headline

let report_json r =
  Obs.Export.report_json ~id:r.id ~claim:r.claim ~expected:r.expected
    ~measured:r.measured ~pass:r.pass ~metrics:r.metrics

(* ---------- E1 ------------------------------------------------------------- *)

(* how many runs pass, [ok ~metrics seed] for seeds 1..[runs], on the pool *)
let passes ~jobs ~metrics runs ok =
  Core.Pool.fold_runs ~jobs ~metrics runs ~init:0 ~fold:( + )
    (fun ~metrics i -> Bool.to_int (ok ~metrics (i + 1)))

let e1_nontermination ?(jobs = 1) ~quick () =
  let budgets = if quick then [ 1; 4; 16 ] else [ 1; 2; 4; 8; 16; 32; 64 ] in
  let runs = if quick then 5 else 20 in
  measured_report ~id:"E1"
    ~claim:
      "Thm 6 (Figs 1-2): with merely-linearizable registers a strong \
       adversary prevents termination of Algorithm 1"
    ~expected:"survival 100% at every round budget, for every coin sequence"
    (fun ~metrics ->
      let s =
        Core.Game_stats.e1_survival ~jobs ~metrics ~n:5 ~budgets ~runs
          ~seed:101L ()
      in
      let measured =
        String.concat ", "
          (List.map2
             (fun b f -> Printf.sprintf "budget %d: %.0f%% alive" b (100. *. f))
             s.Core.Game_stats.budgets s.Core.Game_stats.alive_fraction)
      in
      let pass = List.for_all (fun f -> f = 1.0) s.Core.Game_stats.alive_fraction in
      ( measured,
        pass,
        [
          ("runs", float_of_int (runs * List.length budgets));
          ("max_budget", float_of_int (List.fold_left max 0 budgets));
          ( "min_alive_fraction",
            List.fold_left min 1.0 s.Core.Game_stats.alive_fraction );
        ] ))

(* ---------- E2 ------------------------------------------------------------- *)

let e2_wsl_termination ?(jobs = 1) ~quick () =
  let runs = if quick then 60 else 400 in
  measured_report ~id:"E2"
    ~claim:
      "Thm 7: with write strongly-linearizable registers the same adversary \
       cannot prevent termination"
    ~expected:"all runs terminate; P(round > j) tracks 2^-j (Lemma 19)"
    (fun ~metrics ->
      let t =
        Core.Game_stats.e2_termination ~jobs ~metrics ~n:5 ~max_rounds:60
          ~runs ~seed:211L ()
      in
      let all_terminated = t.Core.Game_stats.max < 60 in
      (* geometric shape: P(round > j) should track 2^-j; allow slack *)
      let shape_ok =
        List.for_all
          (fun (j, p) ->
            let expected = 2. ** float_of_int (-j) in
            p <= (expected *. 2.0) +. 0.08)
          t.Core.Game_stats.tail
      in
      let tail_s =
        String.concat ", "
          (List.filter_map
             (fun (j, p) ->
               if j <= 4 then Some (Printf.sprintf "P(>%d)=%.3f" j p) else None)
             t.Core.Game_stats.tail)
      in
      ( Printf.sprintf "%d runs, mean round %.2f, max %d; %s"
          t.Core.Game_stats.runs t.Core.Game_stats.mean t.Core.Game_stats.max
          tail_s,
        all_terminated && shape_ok,
        [
          ("runs", float_of_int runs);
          ("mean_round", t.Core.Game_stats.mean);
          ("max_round", float_of_int t.Core.Game_stats.max);
        ] ))

(* ---------- E3 ------------------------------------------------------------- *)

let e3_alg2_wsl ?(jobs = 1) ~quick () =
  let runs = if quick then 25 else 150 in
  measured_report ~id:"E3"
    ~claim:
      "Thm 10 (Fig 3): Algorithm 2 is write strongly-linearizable; \
       Algorithm 3 linearizes writes on-line from partial vector timestamps"
    ~expected:
      "100% of random runs pass (L) + (P); Fig-3 order w3 < w2 committed at \
       w2's completion, w1 appended later"
    (fun ~metrics ->
      let ok =
        passes ~jobs ~metrics runs (fun ~metrics seed ->
            Core.Scenario.random_alg2_run ~metrics ~n:(2 + (seed mod 3))
              ~writes_per_proc:2 ~reads_per_proc:2
              ~seed:(Int64.of_int (seed * 31)) ()
            |> Core.Scenario.check_alg2_run ~metrics
            |> Result.is_ok)
      in
      let f3 = Core.Scenario.fig3 ~metrics () in
      let fig3_ok =
        f3.Core.Scenario.ws_at_t = [ f3.Core.Scenario.w3; f3.Core.Scenario.w2 ]
        && f3.Core.Scenario.final_ws
           = [ f3.Core.Scenario.w3; f3.Core.Scenario.w2; f3.Core.Scenario.w1 ]
      in
      ( Printf.sprintf "%d/%d runs pass; Fig-3 order reproduced: %b" ok runs
          fig3_ok,
        ok = runs && fig3_ok,
        [
          ("runs", float_of_int runs);
          ("runs_ok", float_of_int ok);
          ("fig3_ok", if fig3_ok then 1. else 0.);
        ] ))

(* ---------- E4 ------------------------------------------------------------- *)

let e4_fig4_counterexample ?jobs:_ ~quick:_ () =
  measured_report ~id:"E4"
    ~claim:
      "Thm 13 (Fig 4): Algorithm 4 (Lamport clocks) is NOT write \
       strongly-linearizable"
    ~expected:
      "history tree {G -> H1, H2} admits no write strong-linearization; \
       each history alone is linearizable and each single chain admits one"
    (fun ~metrics ->
      let f4 = Core.Scenario.fig4 ~metrics () in
      ( Printf.sprintf "tree impossible: %b; chains ok: %b; all linearizable: %b"
          f4.Core.Treecheck.wsl_impossible f4.Core.Treecheck.chains_ok
          f4.Core.Treecheck.all_linearizable,
        f4.Core.Treecheck.wsl_impossible && f4.Core.Treecheck.chains_ok
        && f4.Core.Treecheck.all_linearizable,
        [
          ("histories", 3.);
          ("wsl_impossible", if f4.Core.Treecheck.wsl_impossible then 1. else 0.);
          ("chains_ok", if f4.Core.Treecheck.chains_ok then 1. else 0.);
        ] ))

(* ---------- E5 ------------------------------------------------------------- *)

let e5_alg4_linearizable ?(jobs = 1) ~quick () =
  let runs = if quick then 25 else 150 in
  measured_report ~id:"E5"
    ~claim:"Thm 12: Algorithm 4 is a linearizable MWMR register"
    ~expected:"100% of random runs linearizable"
    (fun ~metrics ->
      let ok =
        passes ~jobs ~metrics runs (fun ~metrics seed ->
            Core.Scenario.random_alg4_run ~metrics ~n:(2 + (seed mod 3))
              ~writes_per_proc:2 ~reads_per_proc:2
              ~seed:(Int64.of_int (seed * 37)) ()
            |> Core.Scenario.check_alg4_run ~metrics
            |> Result.is_ok)
      in
      ( Printf.sprintf "%d/%d runs linearizable" ok runs,
        ok = runs,
        [ ("runs", float_of_int runs); ("runs_ok", float_of_int ok) ] ))

(* ---------- E6 ------------------------------------------------------------- *)

(* the single-writer workload of E6, E11 and E13: writer 0, readers 1
   and 2 on five nodes, four writes and three reads each *)
let abd_shape =
  {
    Core.Run_config.default with
    Core.Run_config.writes_each = 4;
    reads_each = 3;
  }

(* What a sweep ([Core.Monitor.sweep]) of [runs] configs drew, counted
   in runs: [clean] drew no violation, [finished] no [termination/*] one,
   [lin] neither that nor a [linearizability] one (so [lin = runs] means
   every run finished, none stalled), and [stalls] a
   [termination/stalled] one.  [counter name] sums [reg.abd.name] and
   [reg.mwabd.name] over the sweep's runs, read from a registry of its
   own that is merged into the experiment's: exactly as if its runs had
   been merged there, since every histogram a run records holds
   integers. *)
type tally = {
  clean : int;
  finished : int;
  lin : int;
  stalls : int;
  counter : string -> int;
}

let sweep ~jobs ~metrics runs config_of =
  let reg = Obs.Metrics.create () in
  let hits = Core.Monitor.sweep ~jobs ~metrics:reg runs config_of in
  Obs.Metrics.merge ~into:metrics reg;
  let drew p =
    List.length
      (List.filter
         (fun (_, _, vs) -> List.exists (fun v -> p v.Core.Monitor.monitor) vs)
         hits)
  in
  let term = String.starts_with ~prefix:"termination/" in
  {
    clean = runs - List.length hits;
    finished = runs - drew term;
    lin = runs - drew (fun m -> term m || m = "linearizability");
    stalls = drew (String.equal "termination/stalled");
    counter =
      (fun name ->
        Obs.Metrics.counter reg ("reg.abd." ^ name)
        + Obs.Metrics.counter reg ("reg.mwabd." ^ name));
  }

let e6_abd ?(jobs = 1) ?(faults = Core.Faults.none) ~quick () =
  let runs = if quick then 10 else 60 in
  measured_report ~id:"E6"
    ~claim:
      "Thm 14 / §6: ABD (and every linearizable SWMR implementation) is \
       write strongly-linearizable"
    ~expected:
      "100% of runs (incl. minority crashes) linearizable with monotone f* \
       write orders on every prefix"
    (fun ~metrics ->
      let t =
        sweep ~jobs ~metrics runs (fun i ->
            let seed = i + 1 in
            (* even seeds crash replicas 3 and 4 at E14's steps, unless the
               plan brings its own crash schedule *)
            let faults =
              if seed mod 2 = 0 && faults.Core.Faults.crash_at = [] then
                { faults with Core.Faults.crash_at = [ (60, 3); (120, 4) ] }
              else faults
            in
            { abd_shape with seed = Int64.of_int (seed * 41); faults })
      in
      ( Printf.sprintf "%d/%d runs pass (%s)" t.clean runs
          (if faults.Core.Faults.crash_at = [] then
             "half with 2/5 nodes crashed"
           else "the plan's crash schedule on every run"),
        t.clean = runs,
        [ ("runs", float_of_int runs); ("runs_ok", float_of_int t.clean) ] ))

(* ---------- E7 ------------------------------------------------------------- *)

let e7_cor9 ?(jobs = 1) ~quick () =
  let live_runs = if quick then 5 else 30 in
  measured_report ~id:"E7"
    ~claim:
      "Cor 9: A' = (Algorithm 1 gate; consensus) terminates iff the gate \
       registers are write strongly-linearizable"
    ~expected:
      "linearizable gate: 0 processes ever start consensus; WSL gate: all \
       decide with agreement+validity"
    (fun ~metrics ->
      let blocked =
        Core.Cor9.run_blocked ~metrics
          {
            n = 5;
            gate_rounds = (if quick then 10 else 30);
            consensus_max_rounds = 200;
            seed = 31L;
          }
      in
      let live_ok, gate_rounds_sum =
        Core.Pool.fold_runs ~jobs ~metrics live_runs
          ~init:(0, 0)
          ~fold:(fun (oks, rounds) (ok, r) ->
            ((if ok then oks + 1 else oks), rounds + r))
          (fun ~metrics i ->
            let seed = i + 1 in
            let o =
              Core.Cor9.run_live ~metrics
                {
                  n = 5;
                  gate_rounds = 60;
                  consensus_max_rounds = 400;
                  seed = Int64.of_int (seed * 43);
                }
                ~inputs:(fun pid -> pid mod 2)
            in
            let all_decided =
              List.for_all
                (fun (_, d) -> d <> None)
                o.Core.Cor9.consensus.Core.Rand_consensus.decisions
            in
            let ok =
              all_decided
              && o.Core.Cor9.consensus.Core.Rand_consensus.agreed
              && o.Core.Cor9.consensus.Core.Rand_consensus.valid
              && o.Core.Cor9.game.Core.Game_alg1.terminated
            in
            (ok, o.Core.Cor9.game.Core.Game_alg1.max_round))
      in
      let mean_gate = float_of_int gate_rounds_sum /. float_of_int live_runs in
      ( Printf.sprintf
          "blocked run: blocked=%b; live runs: %d/%d fully decided (mean gate \
           rounds %.1f)"
          blocked.Core.Cor9.blocked live_ok live_runs mean_gate,
        blocked.Core.Cor9.blocked && live_ok = live_runs,
        [
          ("live_runs", float_of_int live_runs);
          ("live_ok", float_of_int live_ok);
          ("mean_gate_rounds", mean_gate);
        ] ))

(* ---------- E8 ------------------------------------------------------------- *)

(* Scheduler steps consumed per operation: Algorithm 2 pays n base-register
   reads plus bookkeeping per write (vector timestamp), Algorithm 4 the
   same asymptotically but with cheaper timestamps; the atomic baseline
   pays O(1).  We measure simulated steps, which are deterministic. *)
let steps_per_op ~metrics ~make ~write ~read ~n ~ops =
  let sched = Core.Sched.create ~seed:77L ~metrics () in
  Fun.protect ~finally:(fun () -> Core.Sched.dispose sched) @@ fun () ->
  let r = make sched in
  let done_ = ref false in
  Core.Sched.spawn sched ~pid:1 (fun () ->
      for k = 1 to ops do
        write r 1 k;
        ignore (read r 1)
      done;
      done_ := true);
  let steps = ref 0 in
  while not !done_ && !steps < ops * (n + 6) * 4 do
    incr steps;
    ignore (Core.Sched.step sched ~pid:1)
  done;
  ignore n;
  float_of_int !steps /. float_of_int (2 * ops)

let e8_cost ?jobs:_ ~quick () =
  let ops = if quick then 10 else 50 in
  let ns = if quick then [ 2; 8 ] else [ 2; 4; 8; 16; 32 ] in
  measured_report ~id:"E8"
    ~claim:
      "§5: achieving write strong-linearizability costs more than plain \
       linearizability (vector vs Lamport timestamps)"
    ~expected:"steps/op: Alg2 >= Alg4, both growing linearly with n"
    (fun ~metrics ->
      let rows =
        List.map
          (fun n ->
            let alg2 =
              steps_per_op ~metrics ~n ~ops
                ~make:(fun sched -> Core.wsl_mwmr sched ~name:"R" ~n ~init:0)
                ~write:(fun r p v -> Core.Wsl_register.write r ~proc:p v)
                ~read:(fun r p -> ignore (Core.Wsl_register.read r ~proc:p))
            in
            let alg4 =
              steps_per_op ~metrics ~n ~ops
                ~make:(fun sched -> Core.lamport_mwmr sched ~name:"R" ~n ~init:0)
                ~write:(fun r p v -> Core.Lamport_register.write r ~proc:p v)
                ~read:(fun r p -> ignore (Core.Lamport_register.read r ~proc:p))
            in
            (n, alg2, alg4))
          ns
      in
      let monotone = List.for_all (fun (_, a2, a4) -> a2 >= a4 -. 0.01) rows in
      let grows =
        match (List.hd rows, List.nth rows (List.length rows - 1)) with
        | (_, a2_small, _), (_, a2_big, _) -> a2_big > a2_small
      in
      ( String.concat "; "
          (List.map
             (fun (n, a2, a4) ->
               Printf.sprintf "n=%d: alg2 %.1f, alg4 %.1f steps/op" n a2 a4)
             rows),
        monotone && grows,
        ("ops_per_config", float_of_int (2 * ops))
        :: List.concat_map
             (fun (n, a2, a4) ->
               [
                 (Printf.sprintf "alg2.steps_per_op.n%d" n, a2);
                 (Printf.sprintf "alg4.steps_per_op.n%d" n, a4);
               ])
             rows ))

(* ---------- E9 (ablation) ---------------------------------------------------- *)

let e9_ablation ?(jobs = 1) ~quick () =
  (* Theorem 7's mechanism lives entirely in R1: give the adversary back
     R1's reordering power while making R2 and C write strongly-
     linearizable, and it still wins; conversely R1-WSL with merely
     linearizable R2/C already forces termination. *)
  let budget = if quick then 8 else 24 in
  let runs = if quick then 40 else 200 in
  measured_report ~id:"E9"
    ~claim:
      "ablation: Theorem 7's mechanism is R1's write order alone — the \
       modes of R2 and C are irrelevant to the game's fate"
    ~expected:
      "R1 linearizable + R2/C WSL: adversary still prevents termination; \
       R1 WSL + R2/C linearizable: every run terminates"
    (fun ~metrics ->
      let a =
        Core.Adversary.run_linearizable_r1_only ~metrics ~n:5 ~rounds:budget
          ~seed:61L ()
      in
      let adversary_still_wins = not a.Core.Game_alg1.terminated in
      let terminated =
        passes ~jobs ~metrics runs (fun ~metrics r ->
            (Core.Adversary.run_write_strong
               ~aux_mode:(Some Core.Adv_register.Linearizable) ~metrics ~n:5
               ~max_rounds:60
               ~seed:(Int64.of_int ((r * 9973) + 5))
               ())
              .Core.Game_alg1.terminated)
      in
      ( Printf.sprintf
          "R1-only-linearizable: alive after %d rounds = %b; R1-only-WSL: \
           %d/%d runs terminated"
          budget adversary_still_wins terminated runs,
        adversary_still_wins && terminated = runs,
        [
          ("budget", float_of_int budget);
          ("runs", float_of_int runs);
          ("terminated_runs", float_of_int terminated);
        ] ))

(* ---------- E10 (extension) --------------------------------------------------- *)

let e10_mwabd ?(jobs = 1) ?(faults = Core.Faults.none) ~quick () =
  (* E10's 3-node topology makes every node a client (writers 0, 1 and
     reader 2), so a crash schedule cannot apply here: keep the link
     faults, drop the crashes (they stay in force for E6's 5-node runs) *)
  let faults = { faults with Core.Faults.crash_at = [] } in
  (* §5's lesson transposed to message passing: the multi-writer ABD
     register uses Lamport timestamps like Algorithm 4, is linearizable,
     and is NOT write strongly-linearizable — shown by the same two-
     extension construction as Figure 4, realized with message-delivery
     choices.  Theorem 14's SWMR result is therefore about the single-
     writer structure, not the communication medium. *)
  let runs = if quick then 8 else 40 in
  measured_report ~id:"E10"
    ~claim:
      "extension of §5/Thm 13: multi-writer ABD (Lamport timestamps over \
       majorities) is linearizable but not write strongly-linearizable"
    ~expected:
      "random runs 100% linearizable; the two-delivery-order history tree \
       admits no write strong-linearization"
    (fun ~metrics ->
      let lin_ok =
        (sweep ~jobs ~metrics runs (fun i ->
             {
               Core.Run_config.default with
               proto = Mw;
               n = 3;
               writers = [ 0; 1 ];
               writes_each = 2;
               readers = [ 2 ];
               reads_each = 3;
               faults;
               seed = Int64.of_int ((i + 1) * 53);
             }))
          .lin
      in
      let sc = Core.Mwabd_scenario.run ~metrics () in
      ( Printf.sprintf
          "%d/%d runs linearizable; tree impossible: %b (chains ok: %b, all \
           linearizable: %b)"
          lin_ok runs sc.Core.Treecheck.wsl_impossible
          sc.Core.Treecheck.chains_ok
          sc.Core.Treecheck.all_linearizable,
        lin_ok = runs
        && sc.Core.Treecheck.wsl_impossible
        && sc.Core.Treecheck.chains_ok
        && sc.Core.Treecheck.all_linearizable,
        [
          ("runs", float_of_int runs);
          ("runs_linearizable", float_of_int lin_ok);
          ( "wsl_impossible",
            if sc.Core.Treecheck.wsl_impossible then 1. else 0. );
        ] ))

(* ---------- E11 (fault injection) --------------------------------------------- *)

let e11_faults ?(jobs = 1) ~quick () =
  (* Sweep (drop, duplicate, scheduled crashes) over both registers.  Each
     run gets a deterministic fault plan (drawn from its own RNG stream,
     see Simkit.Faults), so the whole sweep is reproducible and identical
     whatever [jobs] is. *)
  let configs =
    if quick then [ (0.0, 0.0, 0); (0.1, 0.05, 1); (0.2, 0.05, 2) ]
    else
      [
        (0.0, 0.0, 0);
        (0.05, 0.0, 0);
        (0.1, 0.05, 1);
        (0.15, 0.1, 1);
        (0.2, 0.05, 2);
      ]
  in
  let runs = if quick then 6 else 25 in
  measured_report ~id:"E11"
    ~claim:
      "robustness: retransmitting ABD/MW-ABD terminate and stay \
       linearizable under lossy links, duplication and minority crash \
       schedules"
    ~expected:
      "at drop <= 0.2 with <= 2/5 replicas crashed: 100% of runs terminate \
       before the watchdog budget and 100% of completed histories are \
       linearizable; retransmission cost grows with the drop rate"
    (fun ~metrics ->
      let total = 2 * runs in
      let per_config =
        List.map
          (fun (drop, dup, crashes) ->
            let plan =
              {
                Core.Faults.none with
                Core.Faults.drop;
                duplicate = dup;
                delay = 0.05;
                delay_bound = 4;
                (* crash replicas 3, 4 (never clients) on the step clock *)
                crash_at = List.init crashes (fun c -> (150 * (c + 1), 3 + c));
              }
            in
            (* first [runs] ABD runs, then [runs] MW-ABD runs *)
            let t =
              sweep ~jobs ~metrics total (fun i ->
                  if i < runs then
                    {
                      abd_shape with
                      seed = Int64.of_int (((i + 1) * 59) + crashes);
                      faults = plan;
                    }
                  else
                    {
                      Core.Run_config.default with
                      proto = Mw;
                      writers = [ 0; 1 ];
                      writes_each = 2;
                      readers = [ 2 ];
                      reads_each = 2;
                      faults = plan;
                      seed = Int64.of_int (((i - runs + 1) * 67) + crashes);
                    })
            in
            (drop, dup, crashes, t))
          configs
      in
      let all_ok = List.for_all (fun (_, _, _, t) -> t.lin = total) per_config in
      (* retransmission cost must grow with the drop rate (benign -> max) *)
      let retx_of (_, _, _, t) = t.counter "retransmits" in
      let cost_grows =
        match per_config with
        | [] | [ _ ] -> true
        | first :: rest ->
            retx_of (List.nth rest (List.length rest - 1)) > retx_of first
      in
      let measured =
        String.concat "; "
          (List.map
             (fun ((drop, dup, crashes, t) as c) ->
               Printf.sprintf
                 "drop=%.2f dup=%.2f crashes=%d: %d/%d done, %d/%d lin, %d \
                  stalls, retx=%d"
                 drop dup crashes t.finished total t.lin total t.stalls
                 (retx_of c))
             per_config)
      in
      ( measured,
        all_ok && cost_grows,
        ("configs", float_of_int (List.length configs))
        :: ("runs_per_config", float_of_int total)
        :: ("cost_grows", if cost_grows then 1. else 0.)
        :: List.concat_map
             (fun ((drop, dup, crashes, t) as c) ->
               let tag =
                 Printf.sprintf "drop%02.0f.dup%02.0f.crash%d" (100. *. drop)
                   (100. *. dup) crashes
               in
               [
                 ( "term_rate." ^ tag,
                   float_of_int t.finished /. float_of_int total );
                 ("retransmits." ^ tag, float_of_int (retx_of c));
               ])
             per_config ))

(* ---------- E12 (chaos self-test) ---------------------------------------------- *)

(* The seeded-bug half of E12 and E14: a chaos search for [inject], the
   number of its findings' corpus entries that replay verbatim, and
   whether the report is the same at the other [-j]. *)
let seeded_bug ~jobs ~metrics ~inject ~seed ~budget =
  let search ?telemetry jobs =
    Core.Chaos.search ~jobs ~inject ?telemetry ~seed ~budget ()
  in
  let buggy = search ~telemetry:metrics jobs in
  let entries = Core.Chaos.to_entries buggy in
  let replayed =
    List.length
      (List.filter
         (fun e -> Core.Corpus.replay e = Core.Corpus.Reproduced)
         entries)
  in
  let again = search (if jobs = 1 then 2 else 1) in
  ( buggy.Core.Chaos.findings,
    replayed,
    List.length entries,
    Core.Json.to_string (Core.Chaos.report_json buggy)
    = Core.Json.to_string (Core.Chaos.report_json again) )

let e12_chaos ?(jobs = 1) ~quick () =
  (* Two sweeps from one seed: the production registers must survive the
     whole chaos budget with zero violations, and the same search pointed
     at a seeded quorum bug (each round waits for majority-1 replies, so
     quorums need not intersect) must catch it, shrink it to a minimal
     reproducer, and replay that reproducer verbatim — all byte-identical
     whatever [jobs] is. *)
  let seed = 12L in
  let clean_budget = if quick then 30 else 120 in
  let bug_budget = if quick then 4 else 10 in
  measured_report ~id:"E12"
    ~claim:
      "chaos loop: random (workload x faults x crashes x policy) search \
       with online monitors finds nothing on the real registers, and \
       finds + shrinks + replays a seeded quorum-intersection bug"
    ~expected:
      "0 violations on clean code; every injected-bug run caught by the \
       quorum-sanity monitor, shrunk to <= 1 crash and zero link faults, \
       reproduced verbatim from its corpus entry; reports identical at -j \
       1 and -j 2"
    (fun ~metrics ->
      let clean =
        Core.Chaos.search ~jobs ~telemetry:metrics ~seed ~budget:clean_budget
          ()
      in
      let findings, replayed, entries, deterministic =
        seeded_bug ~jobs ~metrics ~inject:Core.Chaos.Quorum_too_small ~seed
          ~budget:bug_budget
      in
      let found = List.length findings in
      let shrunk_ok =
        found > 0
        && List.for_all
             (fun f ->
               let m = f.Core.Chaos.shrunk.Core.Shrink.config in
               f.Core.Chaos.first.Core.Monitor.monitor = "quorum-sanity"
               && m.Core.Run_config.quorum <> None
               && List.length m.Core.Run_config.faults.Core.Faults.crash_at
                  <= 1
               && m.Core.Run_config.faults.Core.Faults.drop = 0.
               && m.Core.Run_config.writes_each = 1)
             findings
      in
      let shrink_attempts =
        List.fold_left
          (fun a f -> a + f.Core.Chaos.shrunk.Core.Shrink.attempts)
          0 findings
      in
      ( Printf.sprintf
          "clean: %d/%d runs violation-free; bug: %d/%d caught, shrunk in \
           %d executions, %d/%d reproducers replay verbatim; deterministic \
           across jobs: %b"
          (clean_budget - List.length clean.Core.Chaos.findings)
          clean_budget found bug_budget shrink_attempts replayed entries
          deterministic,
        clean.Core.Chaos.findings = [] && found = bug_budget && shrunk_ok && entries > 0
        && replayed = entries && deterministic,
        [
          ("clean_runs", float_of_int clean_budget);
          ( "clean_violations",
            float_of_int (List.length clean.Core.Chaos.findings) );
          ("bug_runs", float_of_int bug_budget);
          ("bug_found", float_of_int found);
          ("shrink_attempts", float_of_int shrink_attempts);
          ("deterministic", if deterministic then 1. else 0.);
        ] ))

(* ---------- E13 (streaming serve checker) -------------------------------------- *)

let e13_serve ?(jobs = 1) ~quick () =
  ignore jobs;
  (* a multiple of 3 so the alg2/alg4/faulty-ABD rotation stays balanced *)
  let runs = if quick then 6 else 24 in
  measured_report ~id:"E13"
    ~claim:
      "the streaming serve checker (incremental segmentation, ingest \
       quarantine, budget degradation) agrees with the offline decision \
       procedure on replayed traces, benign and faulty"
    ~expected:
      "engine verdicts byte-identical to the offline reference oracle on \
       per-run and concatenated multi-segment streams, conjunction equal \
       to Lincheck.check; corrupted streams quarantined with exact counts \
       and unchanged verdicts; tiny budgets degrade to explicit unknown \
       verdicts on every segment"
    (fun ~metrics ->
      let serve ?config lines =
        let verdicts = ref [] in
        let engine =
          Core.Serve.Engine.create ~metrics ?config
            ~emit:(fun v -> verdicts := v :: !verdicts)
            ()
        in
        List.iter (Core.Serve.Engine.feed_line engine) lines;
        Core.Serve.Engine.finish engine;
        (engine, List.rev !verdicts)
      in
      let workload i =
        let seed = Int64.of_int (1300 + i) in
        if i mod 3 = 0 then (
          (* faulty: lossy duplicating links plus a crashed replica; the
             clients still finish, so every operation responds *)
          let r =
            Core.Abd_runs.execute_config ~metrics
              {
                abd_shape with
                seed;
                faults =
                  {
                    Core.Faults.none with
                    Core.Faults.drop = 0.05;
                    duplicate = 0.05;
                    crash_at = [ (60, 4) ];
                  };
              }
          in
          (r.Core.Abd_runs.trace, r.Core.Abd_runs.history))
        else if i mod 3 = 1 then (
          let r =
            Core.Scenario.random_alg2_run ~metrics ~n:3 ~writes_per_proc:2
              ~reads_per_proc:2 ~seed ()
          in
          (r.Core.Scenario.trace, r.Core.Scenario.history))
        else (
          let r =
            Core.Scenario.random_alg4_run ~metrics ~n:3 ~writes_per_proc:2
              ~reads_per_proc:2 ~seed ()
          in
          (r.Core.Scenario.trace, r.Core.Scenario.history))
      in
      let oracle_agrees ~engine_verdicts ~lines =
        let r = Core.Serve.Reference.run lines in
        let cmp =
          Core.Serve.Reference.compare_verdicts ~engine:engine_verdicts
            ~reference:r.Core.Serve.Reference.verdicts
        in
        Core.Serve.Reference.agreed cmp
        && cmp.Core.Serve.Reference.skipped = 0
      in
      (* A: every run's full trace (annotations included) replayed as a
         stream — engine = reference oracle, and the verdict conjunction
         = the offline checker on the run's history. *)
      let single_ok = ref 0 in
      let total_verdicts = ref 0 in
      let streams = ref [] in
      for i = 1 to runs do
        let trace, hist = workload i in
        let lines =
          List.map Core.Json.to_string (Core.Trace.json_entries trace)
        in
        streams := (lines, hist) :: !streams;
        let engine, verdicts = serve lines in
        total_verdicts := !total_verdicts + List.length verdicts;
        let offline =
          try Core.Lincheck.check ~metrics ~init:(Core.Value.Int 0) hist
          with Core.Lincheck.Too_large _ -> true
        in
        if
          Core.Serve.Engine.quarantined engine = 0
          && (Core.Serve.Engine.fail engine = 0) = offline
          && oracle_agrees ~engine_verdicts:verdicts ~lines
        then incr single_ok
      done;
      let streams = List.rev !streams in
      (* B: concatenated multi-segment streams — three runs time-shifted
         and id-offset into one stream; engine = oracle, and the verdict
         conjunction = the offline checker on the combined history. *)
      let render_stream histories =
        let lines = ref [] in
        let events = ref [] in
        let toff = ref 0 and idoff = ref 0 in
        List.iter
          (fun hist ->
            let maxt = ref 0 and maxid = ref 0 in
            List.iter
              (fun { Core.Event.time; event } ->
                let time = time + !toff in
                maxt := max !maxt time;
                let remap op_id = op_id + !idoff in
                let event =
                  match event with
                  | Core.Event.Invoke { op_id; obj; kind; proc = _ } ->
                      let op_id = remap op_id in
                      maxid := max !maxid op_id;
                      (* one process per op: proc is irrelevant to
                         linearizability and this keeps the combined
                         event list well-formed for Hist.of_events *)
                      Core.Event.Invoke { op_id; proc = op_id; obj; kind }
                  | Core.Event.Respond { op_id; result } ->
                      let op_id = remap op_id in
                      maxid := max !maxid op_id;
                      Core.Event.Respond { op_id; result }
                in
                let j = Core.Serve.Ingest.event_json ~time event in
                lines := Core.Json.to_string j :: !lines;
                events := { Core.Event.time; event } :: !events)
              (Core.Hist.events hist);
            toff := !maxt + 1;
            idoff := !maxid + 1)
          histories;
        (List.rev !lines, List.rev !events)
      in
      let groups = runs / 3 in
      let multi_ok = ref 0 in
      for g = 0 to groups - 1 do
        let histories =
          List.filteri (fun i _ -> i / 3 = g) streams |> List.map snd
        in
        let lines, events = render_stream histories in
        let engine, verdicts = serve lines in
        let combined = Core.Hist.of_events_exn events in
        let offline =
          Core.Lincheck.check_multi ~metrics
            ~init_of:(fun _ -> Core.Value.Int 0)
            combined
        in
        if
          Core.Serve.Engine.quarantined engine = 0
          && (Core.Serve.Engine.fail engine = 0) = offline
          && oracle_agrees ~engine_verdicts:verdicts ~lines
        then incr multi_ok
      done;
      (* C: mutate a stream — leading garbage, a replayed (stale) invoke
         line, a truncated tail — and demand exactly three quarantined
         lines and byte-identical verdicts. *)
      let clean_lines, _ = List.nth streams 0 in
      let _, clean_verdicts = serve clean_lines in
      let stale =
        List.find
          (fun l ->
            match Core.Json.of_string l with
            | Ok j -> Core.Json.member "kind" j = Some (Core.Json.Str "invoke")
            | Error _ -> false)
          clean_lines
      in
      let corrupted =
        ("%% not json %%" :: clean_lines) @ [ stale; "{\"t\":9,\"ki" ]
      in
      let cengine, cverdicts = serve corrupted in
      let corrupt_ok =
        Core.Serve.Engine.quarantined cengine = 3
        && List.length cverdicts = List.length clean_verdicts
        && List.for_all2 Core.Serve.Verdict.equal cverdicts clean_verdicts
      in
      (* D: degradation — a 4-state budget and a 4-op cap must turn every
         nontrivial segment into an explicit structured unknown, never a
         crash or a silent pass. *)
      let degraded_config seg =
        { Core.Serve.Engine.default_config with Core.Serve.Engine.seg }
      in
      let count_unknown pred verdicts =
        List.length
          (List.filter
             (fun v ->
               match v.Core.Serve.Verdict.outcome with
               | Core.Serve.Verdict.Unknown r -> pred r
               | _ -> false)
             verdicts)
      in
      let _, sb_verdicts =
        serve
          ~config:
            (degraded_config
               {
                 Core.Serve.Segmenter.default_config with
                 Core.Serve.Segmenter.state_budget = 4;
               })
          clean_lines
      in
      let _, oc_verdicts =
        serve
          ~config:
            (degraded_config
               {
                 Core.Serve.Segmenter.default_config with
                 Core.Serve.Segmenter.seg_cap = 4;
               })
          clean_lines
      in
      let state_unknowns =
        count_unknown
          (function Core.Increment.State_budget _ -> true | _ -> false)
          sb_verdicts
      in
      let cap_unknowns =
        count_unknown
          (function Core.Increment.Op_cap _ -> true | _ -> false)
          oc_verdicts
      in
      let degrade_ok =
        state_unknowns > 0 && cap_unknowns > 0
        && List.length sb_verdicts = List.length clean_verdicts
        && List.length oc_verdicts = List.length clean_verdicts
      in
      ( Printf.sprintf
          "single: %d/%d streams agree (engine = oracle = offline, %d \
           verdicts); multi-segment: %d/%d; corruption: %s (3 quarantined, \
           verdicts unchanged); degradation: %d state-budget + %d op-cap \
           unknowns"
          !single_ok runs !total_verdicts !multi_ok groups
          (if corrupt_ok then "ok" else "FAILED")
          state_unknowns cap_unknowns,
        !single_ok = runs && !multi_ok = groups && corrupt_ok && degrade_ok,
        [
          ("streams", float_of_int runs);
          ("verdicts", float_of_int !total_verdicts);
          ("multi_segment_groups", float_of_int groups);
          ("state_budget_unknowns", float_of_int state_unknowns);
          ("op_cap_unknowns", float_of_int cap_unknowns);
        ] ))

(* ---------- E14 (crash-recovery) ----------------------------------------------- *)

let e14_recovery ?(jobs = 1) ~quick () =
  (* Two parts from one experiment, mirroring E12's clean/bug split.
     Part 1 sweeps (recovery delay x persist policy x link-fault mix)
     over both registers with a fixed two-crash schedule, every crash
     paired with a recovery: safe recoveries (state-transfer handshake)
     must never cost termination or linearizability.  Part 2 points the
     chaos search at the seeded unsafe-recovery bug (nothing durable +
     no handshake) and demands the catch -> shrink -> replay loop. *)
  let delays = if quick then [ 50; 900 ] else [ 50; 300; 900 ] in
  let persists = [ `Every; `Never ] in
  let mixes = [ (0.0, 0.0); (0.1, 0.05) ] in
  let runs = if quick then 3 else 8 in
  measured_report ~id:"E14"
    ~claim:
      "crash-recovery: with durable replica state and the state-transfer \
       recovery handshake, ABD/MW-ABD terminate and stay linearizable \
       across node crashes and restarts; skipping the handshake with \
       nothing durable is a real bug the chaos loop catches, shrinks and \
       replays"
    ~expected:
      "100% termination and linearizability (and zero amnesia) at every \
       (recovery delay x persist policy x fault mix x register) point; \
       the seeded unsafe-recovery search finds violations, every finding \
       keeps the bug (unsafe recovery, nothing durable) and at least one \
       shrinks to a single crash+recover pair with zero link-fault \
       probabilities, corpus entries replay verbatim; reports identical \
       across -j"
    (fun ~metrics ->
      (* -- part 1: the safe-recovery lattice -- *)
      let points =
        List.concat_map
          (fun delay ->
            List.concat_map
              (fun persist ->
                List.map (fun mix -> (delay, persist, mix)) mixes)
              persists)
          delays
      in
      let total = 2 * runs in
      let per_point =
        List.mapi
          (fun pi (delay, persist, (drop, duplicate)) ->
            let faults =
              {
                Core.Faults.none with
                Core.Faults.drop;
                duplicate;
                delay = 0.05;
                delay_bound = 4;
                (* replicas 3 and 4 (never clients) crash on the step
                   clock and restart [delay] steps later.  Crash early:
                   runs of this size finish within a couple hundred
                   steps, and only the shortest delay is required to
                   land every restart *)
                crash_at = [ (60, 3); (120, 4) ];
                recover_at = [ (60 + delay, 3); (120 + delay, 4) ];
              }
            in
            (* first [runs] ABD runs, then [runs] MW-ABD runs *)
            let t =
              sweep ~jobs ~metrics total (fun i ->
                  let seed =
                    Int64.of_int (((pi + 1) * 1009) + ((i mod runs) * 71) + 14)
                  in
                  let c =
                    { Core.Run_config.default with faults; seed; persist }
                  in
                  if i < runs then c
                  else { c with proto = Mw; writers = [ 0; 1 ]; readers = [ 2 ] })
            in
            (delay, t))
          points
      in
      let sweep_ok =
        List.for_all
          (fun (delay, t) ->
            let recov = t.counter "recoveries" in
            t.lin = total && t.counter "amnesia" = 0
            (* short delays land well inside the run: every scheduled
               restart must actually happen, and safely (one handshake
               per restart).  Longer delays may outlive a finished run. *)
            && (delay > List.hd delays
               || (recov = 2 * total && t.counter "state_transfer" = recov)))
          per_point
      in
      let recov_total =
        List.fold_left (fun a (_, t) -> a + t.counter "recoveries") 0 per_point
      in
      (* -- part 2: the seeded unsafe-recovery bug -- *)
      let seed = 14L in
      let bug_budget = if quick then 6 else 12 in
      let findings, replayed, entries, deterministic =
        seeded_bug ~jobs ~metrics ~inject:Core.Chaos.Unsafe_recovery ~seed
          ~budget:bug_budget
      in
      let found = List.length findings in
      let minimal_pair f =
        let m = f.Core.Chaos.shrunk.Core.Shrink.config in
        List.length m.Core.Run_config.faults.Core.Faults.crash_at = 1
        && List.length m.Core.Run_config.faults.Core.Faults.recover_at = 1
        && m.Core.Run_config.faults.Core.Faults.drop = 0.
        && m.Core.Run_config.faults.Core.Faults.duplicate = 0.
      in
      let shrunk_ok =
        found > 0
        && List.for_all
             (fun f ->
               let m = f.Core.Chaos.shrunk.Core.Shrink.config in
               (* amnesia surfaces either as a rolled-back replica caught
                  red-handed (recovery-sanity) or as the stale read it
                  causes (linearizability) *)
               List.mem f.Core.Chaos.first.Core.Monitor.monitor
                 [ "recovery-sanity"; "linearizability" ]
               && m.Core.Run_config.unsafe_recovery
               && m.Core.Run_config.persist = `Never)
             findings
        (* amnesia is schedule-sensitive: for some seeds a residual link
           fault is load-bearing (removing it re-times the run and the
           violation vanishes), so not every fixpoint is the canonical
           minimum — but the search must exhibit it at least once *)
        && List.exists minimal_pair findings
      in
      ( Printf.sprintf
          "sweep: %d points x %d runs, %s, %d recoveries exercised; bug: \
           %d/%d caught, %d/%d reproducers replay verbatim; deterministic \
           across jobs: %b"
          (List.length points) total
          (if sweep_ok then "all terminate + linearizable, 0 amnesia"
           else "FAILED")
          recov_total found bug_budget replayed entries deterministic,
        sweep_ok && recov_total > 0 && shrunk_ok && entries > 0
        && replayed = entries && deterministic,
        [
          ("sweep_points", float_of_int (List.length points));
          ("runs_per_point", float_of_int total);
          ("recoveries", float_of_int recov_total);
          ("bug_runs", float_of_int bug_budget);
          ("bug_found", float_of_int found);
          ("replayed", float_of_int replayed);
          ("deterministic", if deterministic then 1. else 0.);
        ] ))

(* ---------- E15 (fleet scale) -------------------------------------------------- *)

let e15_fleet ?(jobs = 1) ~quick () =
  (* The fleet engine at its design point: a sharded key-space of ABD
     groups under link faults and a crash/recovery pair, driven by
     one-op client sessions (maximum generational churn — at the full
     profile that is a million short-lived clients recycled through a
     few dozen fiber slots) with per-destination delivery batching.
     The batched and unbatched runs of the same config must agree on
     the verdict — every shard completes and no sampled segment fails
     the streaming checker — while batching strictly reduces delivery
     attempts; reports carry no wall clock and are byte-identical
     across -j. *)
  let ops = if quick then 24_000 else 1_000_000 in
  let shards = if quick then 4 else 8 in
  measured_report ~id:"E15"
    ~claim:
      "fleet scale: sharded ABD groups serve 1M+ one-op client sessions \
       through a fixed slot pool under link faults and a crash/recovery \
       pair; per-destination batching amortizes quorum messaging without \
       changing any verdict, and sampled shard histories pass the \
       streaming linearizability checker"
    ~expected:
      "all shards complete in both runs, sessions = ops (every op is its \
       own client), slot recycling covers all but the first occupants, 0 \
       streaming-checker failures, batched delivery attempts per op \
       strictly below unbatched, reports byte-identical across -j"
    (fun ~metrics ->
      let faults =
        {
          Core.Faults.none with
          Core.Faults.drop = 0.05;
          duplicate = 0.02;
          delay = 0.05;
          delay_bound = 4;
          crash_at = [ (400, 2) ];
          recover_at = [ (900, 2) ];
        }
      in
      let base =
        {
          Core.Fleet.default with
          Core.Fleet.shards;
          ops;
          slots = 4;
          session_len = 1;
          write_ratio = 0.2;
          keys = 256;
          faults;
          persist = `Every;
          seed = 15L;
          sample = 2;
        }
      in
      let unbatched = Core.Fleet.run ~jobs ~metrics base in
      let bcfg = { base with Core.Fleet.batch_window = 8; batch_max = 8 } in
      let batched = Core.Fleet.run ~jobs ~metrics bcfg in
      let again =
        Core.Fleet.run ~jobs:(if jobs = 1 then 2 else 1) ~metrics bcfg
      in
      let deterministic =
        Core.Json.to_string (Core.Fleet.report_json batched)
        = Core.Json.to_string (Core.Fleet.report_json again)
      in
      let recycles =
        List.fold_left
          (fun a s -> a + s.Core.Fleet.recycles)
          0 batched.Core.Fleet.shards_r
      in
      let churn_ok =
        batched.Core.Fleet.total_sessions = ops
        && recycles >= ops - (shards * base.Core.Fleet.slots)
      in
      let verdicts_agree =
        unbatched.Core.Fleet.completed && batched.Core.Fleet.completed
        && unbatched.Core.Fleet.total_fails = 0
        && batched.Core.Fleet.total_fails = 0
      in
      let amortized =
        batched.Core.Fleet.total_attempts < unbatched.Core.Fleet.total_attempts
      in
      let decided = batched.Core.Fleet.total_decided_ops in
      let sampled = decided + batched.Core.Fleet.total_undecided_ops in
      ( Printf.sprintf
          "%d ops over %d shards: %d sessions (%d recycles), attempts/op \
           %.2f unbatched vs %.2f batched (%d coalesced), %d sampled \
           segments (%d fail, %d unknown), decided %d of %d sampled ops; \
           deterministic across -j: %b"
          ops shards batched.Core.Fleet.total_sessions recycles
          (Core.Fleet.attempts_per_op unbatched)
          (Core.Fleet.attempts_per_op batched)
          batched.Core.Fleet.total_coalesced batched.Core.Fleet.total_segments
          batched.Core.Fleet.total_fails batched.Core.Fleet.total_unknowns
          decided sampled deterministic,
        verdicts_agree && churn_ok && amortized
        && batched.Core.Fleet.total_segments > 0
        && deterministic,
        [
          ("ops", float_of_int ops);
          ("sessions", float_of_int batched.Core.Fleet.total_sessions);
          ("recycles", float_of_int recycles);
          ("attempts_per_op_unbatched", Core.Fleet.attempts_per_op unbatched);
          ("attempts_per_op_batched", Core.Fleet.attempts_per_op batched);
          ("coalesced", float_of_int batched.Core.Fleet.total_coalesced);
          ("segments", float_of_int batched.Core.Fleet.total_segments);
          ("seg_fails", float_of_int batched.Core.Fleet.total_fails);
          ("deterministic", if deterministic then 1. else 0.);
        ] ))

let catalogue ?faults () =
  let faulty f ?jobs ~quick () = f ?jobs ?faults ~quick () in
  [
    ("E1", e1_nontermination);
    ("E2", e2_wsl_termination);
    ("E3", e3_alg2_wsl);
    ("E4", e4_fig4_counterexample);
    ("E5", e5_alg4_linearizable);
    ("E6", faulty e6_abd);
    ("E7", e7_cor9);
    ("E8", e8_cost);
    ("E9", e9_ablation);
    ("E10", faulty e10_mwabd);
    ("E11", e11_faults);
    ("E12", e12_chaos);
    ("E13", e13_serve);
    ("E14", e14_recovery);
    ("E15", e15_fleet);
  ]

let ids = List.map fst (catalogue ())

let select ?faults only =
  let catalogue = catalogue ?faults () in
  match only with
  | None -> catalogue
  | Some wanted ->
      let wanted = List.map String.uppercase_ascii wanted in
      List.iter
        (fun id ->
          if not (List.mem_assoc id catalogue) then
            invalid_arg
              (Printf.sprintf "Experiments: unknown id %S (know %s)" id
                 (String.concat ", " ids)))
        wanted;
      (* battery order, not request order: the reports read E1..E15 *)
      List.filter (fun (id, _) -> List.mem id wanted) catalogue

let all ?jobs ?only ?faults ~quick () =
  List.map (fun (_, f) -> f ?jobs ~quick ()) (select ?faults only)
