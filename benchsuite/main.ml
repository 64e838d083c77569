(* The repository benchmark.

     dune exec benchsuite/main.exe -- suite [--seed S] [--only W]
       [--seconds N] [--json FILE] [--trace FILE] [--smoke]

   runs each workload in a child process of its own (so the high-water
   RSS and GC state are the workload's), prints every metric by name
   with its unit, checks each workload's outputs, and exits 1 if any
   check fails.  With --trace FILE each workload is then run again
   under the span recorder and the traced per-layer metrics are printed
   too; the spans and their per-name self times go to FILE.  --smoke
   runs every workload at a tiny size, traced, and also checks that the
   metric names and units printed are exactly those of BENCHMARK.json.

     main.exe workload W --seed S --seconds N [--traced] [--spans FILE] [--probe]

   is the child: one workload, one JSON row on stdout.  The suite runs it
   once measured, then as max_rss_mb probes, then (with --trace) traced. *)

module J = Obs.Json
module M = Obs.Metrics
module W = Workloads

(* ----- the metric catalogue ---------------------------------------------- *)

(* Gated: what a user pays before the first request, and in memory.  The
   throughput and latency are per-layer: on a shared host they move by
   more than any bound a gate could use (see README.md). *)
let end_to_end = [ ("setup_s", "s"); ("max_rss_mb", "MB") ]

(* counts read from the measured run's registry, per workload unit *)
let per_unit_counts =
  [
    ("simkit.sched_steps_per_unit", [ "sched.steps" ]);
    ("simkit.recycles_per_unit", [ "sched.recycles" ]);
    ("simkit.stable_persists_per_unit", [ "stable.persists" ]);
    ("msgpass.sends_per_unit", [ "net.sends" ]);
    ("msgpass.attempts_per_unit", [ "net.delivery_attempts" ]);
    ("msgpass.coalesced_per_unit", [ "net.batch.coalesced" ]);
    ("msgpass.retransmits_per_unit", [ "reg.abd.retransmits"; "reg.mwabd.retransmits" ]);
    ("msgpass.stale_replies_per_unit", [ "reg.abd.stale"; "reg.mwabd.stale" ]);
    ("msgpass.dead_letters_per_unit", [ "net.dead_letters" ]);
    ("linchk.states_per_unit", [ "linchk.states" ]);
    ("linchk.inc_states_per_unit", [ "linchk.inc.states" ]);
    ("linchk.tree_nodes_per_unit", [ "treecheck.nodes" ]);
    ("linchk.par_tasks_per_unit", [ "linchk.par.tasks"; "treecheck.par.tasks" ]);
    ("linchk.par_stolen_per_unit", [ "linchk.par.stolen"; "treecheck.par.stolen" ]);
    ( "linchk.par_cancelled_per_unit",
      [ "linchk.par.cancelled"; "treecheck.par.cancelled" ] );
  ]

let per_layer =
  [
    (* wall-clock timings of the measured run: what an optimisation moves,
       ungated because neighbours on a shared host move them too *)
    ("throughput_per_s", "1/s");
    ("latency_p50_us", "us");
    ("latency_p99_us", "us");
  ]
  @ List.map (fun (n, _) -> (n, "count")) per_unit_counts
  @ [
      ("msgpass.delivered_per_attempt", "ratio");
      ("msgpass.sim_latency_p50_ticks", "ticks");
      ("msgpass.sim_latency_p99_ticks", "ticks");
      ("simkit.cpu_per_wall", "ratio");
      ("linchk.states_ratio_j2", "ratio");
      ("serve.unknown_frac", "frac");
      ("failed_frac", "frac");
      (* from the traced run *)
      ("gc.alloc_words_per_unit", "words");
      ("traced_us_per_unit", "us");
      ("obs.json_parse_frac", "frac");
      ("serve.ingest_frac", "frac");
      ("serve.segmenter_frac", "frac");
      ("serve.dispatch_frac", "frac");
      ("linchk.prep_frac", "frac");
      ("linchk.decide_frac", "frac");
      ("linchk.tree_frac", "frac");
      ("linchk.decide_j2_j1_p50_ratio", "ratio");
      ("linchk.tree_j2_j1_p50_ratio", "ratio");
      ("check.gen_config_frac", "frac");
      ("msgpass.execute_frac", "frac");
      ("check.monitor_lin_frac", "frac");
      ("check.monitor_rest_frac", "frac");
      ("trace_overhead_frac", "frac");
    ]

(* ----- the child: one workload ------------------------------------------- *)

(* VmHWM from /proc/self/status, in MB *)
let max_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
      let kb = ref 0 in
      (try
         while true do
           let line = input_line ic in
           try Scanf.sscanf line "VmHWM: %d kB" (fun k -> kb := k)
           with Scanf.Scan_failure _ | Failure _ | End_of_file -> ()
         done
       with End_of_file -> ());
      close_in ic;
      float_of_int !kb /. 1024.

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let metric ?q ?n unit v =
  J.Obj
    ([ ("value", J.Float v); ("unit", J.Str unit) ]
    @ (match q with
      | Some (q1, q3) -> [ ("q1", J.Float q1); ("q3", J.Float q3) ]
      | None -> [])
    @ match n with Some n -> [ ("n", J.Int n) ] | None -> [])

(* a per-layer figure, with the catalogue's unit *)
let layer_metric (name, v) = (name, metric (List.assoc name per_layer) v)

(* set-ups per run, spread over the measured time so that one noisy
   stretch of the host cannot move their median *)
let setups = 11

(* The measured run: set up (generate the inputs; timed), warm up with
   one untimed request, then repeat whole passes over the requests until
   [seconds] of measured time have elapsed, setting up again at every
   [setups - 1]th of the time (set-up time is not part of the passes).
   Throughput is the median pass rate; latency percentiles pool every
   request of every pass. *)
let measure (w : W.t) ~seed ~seconds ~smoke =
  let setup_s = Stats.Buf.create () and digests = ref [] in
  let setup () =
    (* start on an empty minor heap: a set-up of the fleet's few configs
       takes tens of microseconds, less than collecting the garbage a pass
       leaves behind *)
    Gc.minor ();
    let t0 = Stats.now_ns () in
    let prepared = w.W.prepare ~seed ~smoke in
    Stats.Buf.push setup_s (Stats.seconds_since t0);
    digests := prepared.W.digest :: !digests;
    prepared
  in
  let p = setup () in
  ignore (p.W.request ~metrics:(M.create ()) ~lat:(Stats.Buf.create ()) 0);
  let metrics = M.create () and lat = Stats.Buf.create () and rates = Stats.Buf.create () in
  let units = ref 0 and failed = ref 0 and measured = ref 0. and cpu = ref 0. in
  while Stats.Buf.length rates = 0 || !measured < seconds do
    let t0 = Stats.now_ns () and cpu0 = cpu_s () in
    let pass_units = ref 0 and pass_s = ref 0. in
    for i = 0 to p.W.requests - 1 do
      let r = p.W.request ~metrics ~lat i in
      pass_units := !pass_units + r.W.units;
      pass_s := !pass_s +. r.W.wall_s;
      failed := !failed + r.W.failed
    done;
    units := !units + !pass_units;
    Stats.Buf.push rates (float_of_int !pass_units /. !pass_s);
    measured := !measured +. Stats.seconds_since t0;
    cpu := !cpu +. cpu_s () -. cpu0;
    let due =
      float_of_int (Stats.Buf.length setup_s) *. seconds /. float_of_int (setups - 1)
    in
    if !measured >= due && Stats.Buf.length setup_s < setups then ignore (setup ())
  done;
  while Stats.Buf.length setup_s < setups do
    ignore (setup ())
  done;
  let setup_s = Stats.Buf.to_array setup_s and rates = Stats.Buf.to_array rates in
  let checks =
    ("same inputs from the same seed", List.for_all (String.equal p.W.digest) !digests)
    :: p.W.verify ()
  in
  let lat = Stats.sorted (Stats.Buf.to_array lat) in
  let pct = Stats.percentile lat and n = Array.length lat in
  let e2e =
    [ ("setup_s", metric "s" ~q:(Stats.quartiles setup_s) ~n:setups (Stats.median setup_s)) ]
  in
  let per n = W.ratio (float_of_int n) (float_of_int !units) in
  let count names = List.fold_left (fun a n -> a + M.counter metrics n) 0 names in
  let sim q =
    match M.summary metrics "op.latency.sim" with
    | Some s -> if q = 50 then s.M.p50 else s.M.p99
    | None -> 0.
  in
  let layer =
    [
      ( "throughput_per_s",
        metric "1/s" ~q:(Stats.quartiles rates) ~n:(Array.length rates) (Stats.median rates) );
      ("latency_p50_us", metric "us" ~q:(pct 0.25, pct 0.75) ~n (pct 0.5));
      ("latency_p99_us", metric "us" ~n (pct 0.99));
    ]
    @ List.map
        layer_metric
        (List.map (fun (name, names) -> (name, per (count names))) per_unit_counts
        @ [
            ( "msgpass.delivered_per_attempt",
              W.ratio
                (float_of_int (count [ "net.delivered" ]))
                (float_of_int (count [ "net.delivery_attempts" ])) );
            ("msgpass.sim_latency_p50_ticks", sim 50);
            ("msgpass.sim_latency_p99_ticks", sim 99);
            ("simkit.cpu_per_wall", !cpu /. !measured);
            ("failed_frac", per !failed);
          ]
        @ p.W.extra ~metrics ~units:!units)
  in
  (checks, !units, !failed, e2e, layer)

(* The traced run: allocation over one pass at -j 1, then each request
   in turn twice — recorder disarmed and armed, alternating which goes
   first — until [seconds] have elapsed. *)
let traced (w : W.t) ~seed ~seconds ~smoke ~spans_file =
  let p = w.W.prepare ~seed ~smoke in
  let a0 = alloc_words () in
  let alloc_units = p.W.alloc_pass () in
  let alloc = (alloc_words () -. a0) /. float_of_int alloc_units in
  let tr = Spans.create () in
  let timed armed k =
    Spans.set_armed tr armed;
    let t0 = Stats.now_ns () in
    let u = p.W.traced_rep tr k in
    (u, Stats.seconds_since t0)
  in
  let off = ref 0. and on = ref 0. and armed_units = ref 0 and k = ref 0 in
  let t0 = Stats.now_ns () in
  while !k = 0 || Stats.seconds_since t0 < seconds do
    let order = if !k mod 2 = 0 then [ false; true ] else [ true; false ] in
    List.iter
      (fun armed ->
        let u, dt = timed armed !k in
        if armed then begin
          on := !on +. dt;
          armed_units := !armed_units + u
        end
        else off := !off +. dt)
      order;
    incr k
  done;
  Spans.set_armed tr false;
  Option.iter
    (fun path -> Obs.Export.to_file path (Spans.rows tr ~workload:w.W.name))
    spans_file;
  let layer =
    [ ("gc.alloc_words_per_unit", alloc); ("trace_overhead_frac", (!on /. !off) -. 1.) ]
    @ p.W.layers tr ~units:!armed_units
  in
  (p.W.traced_checks (), List.map layer_metric layer)

(* One reading of max_rss_mb: this fresh process's VmHWM after set-up
   and one pass, which is what one invocation over the workload's inputs
   peaks at.  Later passes creep upwards, and at -j 2 by random steps of
   about one domain's minor heap, so the reading is taken before them. *)
let probe (w : W.t) ~seed ~smoke =
  let p = w.W.prepare ~seed ~smoke in
  let metrics = M.create () and lat = Stats.Buf.create () in
  for i = 0 to p.W.requests - 1 do
    ignore (p.W.request ~metrics ~lat i)
  done;
  max_rss_mb ()

let child name ~seed ~seconds ~smoke ~traced:is_traced ~probe:is_probe ~spans_file =
  let w =
    match W.find name with
    | Some w -> w
    | None ->
        Printf.eprintf "benchsuite: unknown workload %S\n" name;
        exit 2
  in
  let wseed = W.derive_seed w seed in
  if is_probe then begin
    let rss = probe w ~seed:wseed ~smoke in
    print_endline
      (J.to_string (J.Obj [ ("kind", J.Str "probe"); ("max_rss_mb", J.Float rss) ]));
    exit 0
  end;
  let checks, attempted, failed, e2e, layer =
    if is_traced then
      let checks, layer = traced w ~seed:wseed ~seconds ~smoke ~spans_file in
      (checks, 0, 0, [], layer)
    else measure w ~seed:wseed ~seconds ~smoke
  in
  let correct = List.for_all snd checks in
  let row =
    J.Obj
      [
        ("kind", J.Str "workload");
        ("workload", J.Str name);
        ("seed", J.Int seed);
        ("workload_seed", J.Str (Int64.to_string wseed));
        ("unit", J.Str w.W.unit_name);
        ("correct", J.Bool correct);
        ("attempted", J.Int attempted);
        ("failed", J.Int failed);
        ("checks", J.Obj (List.map (fun (c, ok) -> (c, J.Bool ok)) checks));
        ("end_to_end", J.Obj e2e);
        ("per_layer", J.Obj layer);
      ]
  in
  print_endline (J.to_string row);
  exit (if correct then 0 else 1)

(* ----- the suite --------------------------------------------------------- *)

let run_child args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let last = ref None in
  (try
     while true do
       let l = input_line ic in
       if String.trim l <> "" then last := Some l
     done
   with End_of_file -> ());
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let row = Option.bind !last (fun l -> Result.to_option (J.of_string l)) in
  (status, row)

let fields = function J.Obj kv -> kv | _ -> []
let member_obj k row = Option.fold ~none:[] ~some:fields (J.member k row)

(* The untraced row with the traced run's per-layer figures and checks
   folded in.  A layer not on the workload's path reads 0. *)
let with_traced row traced =
  let values = member_obj "per_layer" row @ member_obj "per_layer" traced in
  List.iter
    (fun (n, _) ->
      if not (List.mem_assoc n per_layer) then
        invalid_arg ("benchsuite: per-layer metric missing from the catalogue: " ^ n))
    values;
  let layer =
    List.map
      (fun (n, u) -> (n, Option.value (List.assoc_opt n values) ~default:(metric u 0.)))
      per_layer
  in
  let checks = member_obj "checks" row @ member_obj "checks" traced in
  let correct = List.for_all (fun (_, v) -> v = J.Bool true) checks in
  J.Obj
    (List.map
       (function
         | "per_layer", _ -> ("per_layer", J.Obj layer)
         | "checks", _ -> ("checks", J.Obj checks)
         | "correct", _ -> ("correct", J.Bool correct)
         | kv -> kv)
       (fields row))

(* max_rss_mb is the median over this many probe processes: at -j 2 one
   probe's reading varies by several percent with GC and domain timing *)
let probes = 7

let with_rss row readings =
  let a = Array.of_list readings in
  let m = metric "MB" ~q:(Stats.quartiles a) ~n:(Array.length a) (Stats.median a) in
  J.Obj
    (List.map
       (function
         | "end_to_end", e -> ("end_to_end", J.Obj (fields e @ [ ("max_rss_mb", m) ]))
         | kv -> kv)
       (fields row))

let print_metrics catalogue ms =
  let num = function Some v -> Option.value (J.to_float_opt v) ~default:nan | None -> nan in
  List.iter
    (fun (name, unit) ->
      match List.assoc_opt name ms with
      | None -> ()
      | Some m ->
          let f k = num (J.member k m) in
          Printf.printf "  %-34s %16.6g %-5s" name (f "value") unit;
          (match Option.bind (J.member "n" m) J.to_int_opt with
          | Some n when J.member "q1" m <> None ->
              Printf.printf "  (q1 %.6g, q3 %.6g, n %d)" (f "q1") (f "q3") n
          | Some n -> Printf.printf "  (n %d)" n
          | None -> ());
          print_newline ())
    catalogue

let print_row row =
  print_metrics end_to_end (member_obj "end_to_end" row);
  print_metrics per_layer (member_obj "per_layer" row);
  List.iter
    (fun (c, ok) ->
      Printf.printf "  check: %-50s %s\n" c (if ok = J.Bool true then "ok" else "FAILED"))
    (member_obj "checks" row)

(* BENCHMARK.json's metric names and units, for the --smoke assertion *)
let declared () =
  let text = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
  let doc = match J.of_string text with Ok d -> d | Error e -> failwith e in
  let names k =
    match J.member k doc with
    | Some (J.List l) ->
        List.filter_map
          (fun m ->
            match (J.member "name" m, J.member "unit" m) with
            | Some (J.Str n), Some (J.Str u) -> Some (n, u)
            | _ -> None)
          l
    | _ -> []
  in
  let workloads =
    match J.member "workloads" doc with
    | Some (J.List l) ->
        List.filter_map (fun m -> Option.bind (J.member "name" m) J.to_string_opt) l
    | _ -> []
  in
  (workloads, names "end_to_end", names "per_layer")

(* HEAD's commit, with "-dirty" when the tree differs from it; "unknown"
   outside a git checkout.  git runs only where .git is, so it never
   searches the directories above the tree. *)
let commit () =
  if not (Sys.file_exists ".git") then "unknown"
  else
    match
      Unix.open_process_args_in "git"
        [| "git"; "describe"; "--always"; "--dirty"; "--abbrev=40" |]
    with
    | exception Unix.Unix_error _ -> "unknown"
    | ic -> (
        let line = try String.trim (input_line ic) with End_of_file -> "" in
        match Unix.close_process_in ic with
        | Unix.WEXITED 0 when line <> "" -> line
        | _ -> "unknown")

let suite ~seed ~only ~seconds ~json ~trace ~smoke =
  let selected =
    match only with
    | None -> W.all
    | Some n -> (
        match W.find n with
        | Some w -> [ w ]
        | None ->
            Printf.eprintf "benchsuite: unknown workload %S\n" n;
            exit 2)
  in
  let common =
    [ "--seed"; string_of_int seed; "--seconds"; Printf.sprintf "%g" seconds ]
    @ if smoke then [ "--smoke" ] else []
  in
  let ok = ref true in
  let fail fmt = Printf.ksprintf (fun s -> print_endline s; ok := false) fmt in
  let go args =
    match run_child args with
    | Unix.WEXITED (0 | 1), Some row -> Some row
    | _ ->
        fail "  child %s did not report" (String.concat " " args);
        None
  in
  let rss_readings (w : W.t) =
    List.init probes (fun _ -> go ([ "workload"; w.W.name; "--probe" ] @ common))
    |> List.filter_map (fun r -> Option.bind r (J.member "max_rss_mb"))
    |> List.filter_map J.to_float_opt
  in
  let spans_files = ref [] in
  let traced_run (w : W.t) row =
    let spans = Option.map (fun f -> Printf.sprintf "%s.%s" f w.W.name) trace in
    let args =
      [ "workload"; w.W.name; "--traced" ]
      @ common
      @ match spans with Some f -> [ "--spans"; f ] | None -> []
    in
    Option.map
      (fun traced ->
        Option.iter (fun f -> spans_files := f :: !spans_files) spans;
        with_traced row traced)
      (go args)
  in
  let rows =
    List.filter_map
      (fun (w : W.t) ->
        Printf.printf "== %s (seed %d, per %s) ==\n%!" w.W.name seed w.W.unit_name;
        let row =
          match go ([ "workload"; w.W.name ] @ common) with
          | None -> None
          | Some row ->
              let row = with_rss row (rss_readings w) in
              if trace <> None || smoke then traced_run w row else Some row
        in
        Option.iter
          (fun row ->
            print_row row;
            if J.member "correct" row <> Some (J.Bool true) then
              fail "  %s: output checks FAILED" w.W.name;
            print_newline ())
          row;
        row)
      selected
  in
  (* gather the per-workload span files into the one the user named *)
  Option.iter
    (fun path ->
      let oc = open_out path in
      List.iter
        (fun f ->
          In_channel.with_open_bin f (fun ic -> output_string oc (In_channel.input_all ic));
          Sys.remove f)
        (List.rev !spans_files);
      close_out oc;
      Printf.printf "wrote spans to %s\n" path)
    trace;
  if smoke then begin
    let workloads, e2e, layer = declared () in
    let sort l = List.sort compare l in
    if sort workloads <> sort (List.map (fun (w : W.t) -> w.W.name) W.all) then
      fail "smoke: BENCHMARK.json workloads differ from the suite's";
    if sort e2e <> sort end_to_end then
      fail "smoke: BENCHMARK.json end_to_end metrics differ from the suite's";
    if sort layer <> sort per_layer then
      fail "smoke: BENCHMARK.json per_layer metrics differ from the suite's";
    List.iter
      (fun row ->
        if sort (List.map fst (member_obj "end_to_end" row)) <> sort (List.map fst e2e)
        then fail "smoke: printed end-to-end metric names differ from BENCHMARK.json")
      rows;
    if !ok then print_endline "smoke: metric names match BENCHMARK.json"
  end;
  Option.iter
    (fun path ->
      let env =
        J.Obj
          [
            ("kind", J.Str "env");
            ("nproc", J.Int (Domain.recommended_domain_count ()));
            ("ocaml", J.Str Sys.ocaml_version);
            ("commit", J.Str (commit ()));
            ("seed", J.Int seed);
            ("seconds", J.Float seconds);
            ("smoke", J.Bool smoke);
          ]
      in
      Obs.Export.to_file path (env :: rows))
    json;
  exit (if !ok then 0 else 1)

(* ----- command line ------------------------------------------------------ *)

let usage =
  "usage: main.exe suite [--seed S] [--only W] [--seconds N] [--json FILE] \
   [--trace FILE] [--smoke]\n\
  \       main.exe workload W [--seed S] [--seconds N] [--traced] [--spans FILE] [--probe] \
   [--smoke]"

let () =
  let seed = ref 1 and seconds = ref 10. and only = ref None in
  let json = ref None and trace = ref None and spans = ref None in
  let smoke = ref false and is_traced = ref false and is_probe = ref false in
  let anon = ref [] in
  let specs =
    [
      ("--seed", Arg.Set_int seed, "S suite seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "N measured seconds per workload (default 10)");
      ("--only", Arg.String (fun s -> only := Some s), "W run one workload");
      ("--json", Arg.String (fun s -> json := Some s), "FILE write JSONL rows");
      ("--trace", Arg.String (fun s -> trace := Some s), "FILE traced re-run; spans to FILE");
      ("--smoke", Arg.Set smoke, " tiny sizes; check names against BENCHMARK.json");
      ("--traced", Arg.Set is_traced, " (child) run under the span recorder");
      ("--spans", Arg.String (fun s -> spans := Some s), "FILE (child) span output");
      ("--probe", Arg.Set is_probe, " (child) one max_rss_mb reading");
    ]
  in
  (try Arg.parse_argv Sys.argv specs (fun a -> anon := a :: !anon) usage with
  | Arg.Bad msg | Arg.Help msg ->
      prerr_string msg;
      exit 2);
  let seconds = if !smoke then 0. else !seconds in
  match List.rev !anon with
  | [ "suite" ] ->
      suite ~seed:!seed ~only:!only ~seconds ~json:!json ~trace:!trace ~smoke:!smoke
  | [ "workload"; name ] ->
      child name ~seed:!seed ~seconds ~smoke:!smoke ~traced:!is_traced ~probe:!is_probe
        ~spans_file:!spans
  | _ ->
      prerr_endline usage;
      exit 2
