(* Cost ledger: exact work counts of eight fixed-seed workloads.

   Each workload runs once into its own metrics registry, and every
   counter of that registry is printed as one JSONL row
   {"workload":…,"counter":…,"value":…}.  Every run here is a pure
   function of its seed, so the rows repeat exactly on any host: `dune
   runtest` diffs this program's output against the committed
   bench/ledger.jsonl, and `dune promote` re-records it after a change
   that moves a count on purpose.  Wall clock and memory are measured by
   benchsuite/, not here.

     dune exec bench/ledger.exe *)

let init = Core.Value.Int 0

let gen_histories spec gen ~count ~seed =
  let rand = Random.State.make [| 0x5EED; seed |] in
  List.init count (fun _ -> gen spec rand)

(* Checker-heavy set: concurrent atomic histories (always linearizable —
   the DFS must find a witness) and arbitrary histories (often not — the
   DFS must exhaust the state space through the memo set). *)
let decide_histories =
  gen_histories
    { Core.Histgen.default_spec with n_ops = 14; n_procs = 4 }
    Core.Histgen.atomic_history ~count:12 ~seed:1
  @ gen_histories
      { Core.Histgen.default_spec with n_ops = 12; n_procs = 4 }
      Core.Histgen.arbitrary_history ~count:12 ~seed:2

let trees =
  gen_histories
    { Core.Histgen.default_spec with n_ops = 8; n_procs = 3 }
    Core.Histgen.atomic_history ~count:8 ~seed:3
  |> List.map Core.Treecheck.of_prefixes

(* A second decide set: larger, more concurrent histories whose searches
   end within 78 DFS states.  Its workload is still named "decide-j2",
   after the -j 2 search it once priced, so that its rows stay
   byte-identical. *)
let wide_histories =
  gen_histories
    { Core.Histgen.default_spec with n_ops = 18; n_procs = 5 }
    Core.Histgen.atomic_history ~count:4 ~seed:4
  @ gen_histories
      { Core.Histgen.default_spec with n_ops = 16; n_procs = 5 }
      Core.Histgen.arbitrary_history ~count:4 ~seed:5

(* Streaming-checker set: a second history set concatenated into one
   multi-segment JSONL stream (times shifted, op ids offset), so the
   serve engine's full ingest path runs: parse, segment, incremental
   check, verdict. *)
let serve_lines =
  let hists =
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
            | Core.Event.Invoke e ->
                let op_id = e.op_id + !idoff in
                maxid := max !maxid op_id;
                Core.Event.Invoke { e with op_id }
            | Core.Event.Respond e ->
                let op_id = e.op_id + !idoff in
                maxid := max !maxid op_id;
                Core.Event.Respond { e with op_id }
          in
          lines :=
            Obs.Json.to_string (Core.Serve.Ingest.event_json ~time ev)
            :: !lines)
        (Core.Hist.events h);
      toff := !maxt + 1;
      idoff := !maxid + 1)
    hists;
  List.rev !lines

(* A full ABD run through two crash + state-transfer recoveries with
   nothing durable: restart, incarnation bump, read-back handshake. *)
let abd_recovery_config =
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
  }

(* A small sharded fleet under link faults, with and without delivery
   batching. *)
let fleet_config ~batched =
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

(* the checker knows ops by their number in invocation order *)
let feed_increment m h =
  let inc = Core.Increment.create ~metrics:m ~entry:[ init ] () in
  let ops = Hashtbl.create 16 in
  List.iter
    (fun { Core.Event.time; event } ->
      match event with
      | Core.Event.Invoke { op_id; kind; _ } ->
          let op = Hashtbl.length ops in
          Hashtbl.replace ops op_id op;
          Core.Increment.invoke inc ~op ~kind ~time
      | Core.Event.Respond { op_id; result } ->
          Core.Increment.respond inc ~op:(Hashtbl.find ops op_id) ~result ~time)
    (Core.Hist.events h);
  ignore (Core.Increment.outcome inc)

let workloads =
  [
    ( "decide",
      fun m ->
        List.iter
          (fun h -> ignore (Core.Lincheck.witness ~metrics:m ~init h))
          decide_histories );
    ( "decide-j2",
      fun m ->
        List.iter
          (fun h -> ignore (Core.Lincheck.witness ~metrics:m ~init h))
          wide_histories );
    ( "treecheck",
      fun m ->
        List.iter
          (fun t -> ignore (Core.Treecheck.write_strong ~metrics:m ~init t))
          trees );
    ("incremental", fun m -> List.iter (feed_increment m) decide_histories);
    ( "serve-ingest",
      fun m ->
        let engine = Core.Serve.Engine.create ~metrics:m ~emit:ignore () in
        List.iter (Core.Serve.Engine.feed_line engine) serve_lines;
        Core.Serve.Engine.finish engine );
    ( "abd-recovery",
      fun m ->
        ignore (Core.Abd_runs.execute_config ~metrics:m abd_recovery_config) );
    ( "fleet-unbatched",
      fun m ->
        ignore (Core.Fleet.run ~metrics:m (fleet_config ~batched:false)) );
    ( "fleet-batched",
      fun m ->
        ignore (Core.Fleet.run ~metrics:m (fleet_config ~batched:true)) );
  ]

let () =
  List.iter
    (fun (workload, run) ->
      let m = Obs.Metrics.create () in
      run m;
      List.iter
        (fun (counter, value) ->
          print_endline
            (Obs.Json.to_string
               (Obs.Json.Obj
                  [
                    ("workload", Obs.Json.Str workload);
                    ("counter", Obs.Json.Str counter);
                    ("value", Obs.Json.Int value);
                  ])))
        (Obs.Metrics.snapshot m).counters)
    workloads
