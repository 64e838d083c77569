module Config = Msgpass.Runs.Config
module Faults = Simkit.Faults
module Rng = Simkit.Rng
module Pool = Simkit.Pool

type bug = Quorum_too_small | Unsafe_recovery

let pick rng xs = List.nth xs (Rng.int rng (List.length xs))

(* the generator stays below the top prob_ladder rungs: heavy loss is the
   shrinker's territory, the search must never trip the termination
   monitor on healthy code *)
let gen_rungs = [ 0.; 0.01; 0.02; 0.05; 0.1; 0.15; 0.2 ]

(* Per-index stream: configs depend only on (seed, index), never on
   scheduling order; the [split] decorrelates adjacent indices. *)
let gen_config ?inject ~seed index =
  let rng = Rng.split (Rng.create (Rng.nth_seed seed index)) in
  let proto = if Rng.bool rng then Config.Sw else Config.Mw in
  let n =
    match inject with
    (* the seeded recovery bug needs room for a crash+recover pair
       alongside the clients, so pin the 5-node topology *)
    | Some Unsafe_recovery -> 5
    | Some Quorum_too_small | None -> if Rng.bool rng then 3 else 5
  in
  let writers =
    match proto with
    | Config.Sw -> [ 0 ]
    | Config.Mw -> if n = 5 && Rng.bool rng then [ 0; 1 ] else [ 0 ]
  in
  let rest = List.filter (fun x -> not (List.mem x writers)) (List.init n Fun.id) in
  let n_readers = 1 + Rng.int rng 2 in
  let readers = List.filteri (fun i _ -> i < n_readers) rest in
  let writes_each = 1 + Rng.int rng 3 in
  let reads_each = Rng.int rng 4 in
  let drop = pick rng gen_rungs in
  let duplicate = pick rng gen_rungs in
  let delay = pick rng gen_rungs in
  let delay_bound = if delay > 0. then pick rng [ 2; 5; 10 ] else 0 in
  let clients = writers @ readers in
  let crashable =
    List.filter (fun x -> not (List.mem x clients)) (List.init n Fun.id)
  in
  let max_crashes = min (List.length crashable) ((n - 1) / 2) in
  let n_crashes =
    match inject with
    | Some Unsafe_recovery -> 1 + Rng.int rng max_crashes (* >= 1 pair *)
    | Some Quorum_too_small | None -> Rng.int rng (max_crashes + 1)
  in
  let crash_at =
    List.filteri (fun i _ -> i < n_crashes) crashable
    |> List.map (fun node ->
           (* amnesia needs the pair to land while the run is still
              stepping (short runs finish within a few hundred steps),
              after the node has absorbed un-persisted state — so the
              injected bug crashes early; clean searches roam wide *)
           let step =
             match inject with
             | Some Unsafe_recovery -> 30 + Rng.int rng 120
             | Some Quorum_too_small | None -> Rng.int rng 1500
           in
           (step, node))
  in
  (* the recovery lattice: each crashed node may restart later in the
     run.  Clean searches draw the pairing (and the persist policy)
     randomly — safe recoveries must never trip a monitor; the injected
     recovery bug pairs every crash so amnesia is reachable. *)
  let recover_at =
    List.filter_map
      (fun (s, node) ->
        match inject with
        | Some Unsafe_recovery -> Some (s + 30 + Rng.int rng 90, node)
        | Some Quorum_too_small | None ->
            if Rng.bool rng then Some (s + 100 + Rng.int rng 1200, node)
            else None)
      crash_at
  in
  let partitions =
    if Rng.int rng 4 = 0 then
      [ (Rng.int rng 800, 100 + Rng.int rng 300, [ Rng.int rng n ]) ]
    else []
  in
  let policy = if Rng.int rng 4 = 0 then `Round_robin else `Random in
  let quorum =
    match inject with
    | Some Quorum_too_small -> Some (n / 2) (* majority - 1: no intersection *)
    | Some Unsafe_recovery | None -> None
  in
  let persist, unsafe_recovery =
    match inject with
    (* nothing durable + no handshake: recovery rolls the replica back *)
    | Some Unsafe_recovery -> (`Never, true)
    | Some Quorum_too_small | None ->
        ((if Rng.int rng 4 = 0 then `Never else `Every), false)
  in
  (* the batching lattice: a quarter of clean searches turn on
     per-destination delivery coalescing (Net.set_batching) — batching
     preserves per-message fault draws, so a batched healthy run must
     never trip a monitor.  The injected-bug searches stay unbatched:
     their crash/step windows are tuned to the unbatched delivery rate. *)
  let batch_window, batch_max =
    match inject with
    | Some Unsafe_recovery | Some Quorum_too_small -> (0, 1)
    | None ->
        if Rng.int rng 4 = 0 then
          (pick rng [ 4; 8; 16 ], pick rng [ 2; 4; 8 ])
        else (0, 1)
  in
  let c =
    {
      Config.proto;
      n;
      writers;
      writes_each;
      readers;
      reads_each;
      faults =
        {
          Faults.drop;
          duplicate;
          delay;
          delay_bound;
          crash_at;
          recover_at;
          partitions;
        };
      seed = Rng.next_int64 rng;
      policy;
      max_steps = None;
      quorum;
      persist;
      unsafe_recovery;
      batch_window;
      batch_max;
    }
  in
  Config.validate c;
  c

type finding = {
  index : int;
  original : Config.t;
  first : Monitor.violation;
  shrunk : Shrink.outcome;
  postmortem : Obs.Tracer.event list;
}

type report = { seed : int64; budget : int; findings : finding list }

let search ?(jobs = 1) ?inject ?(flight = false) ?telemetry ~seed ~budget () =
  let metrics =
    match telemetry with Some m -> m | None -> Obs.Metrics.create ()
  in
  (* the parallel part is pure per-index search; shrinking runs
     sequentially afterwards, in index order, so the whole report is a
     function of (seed, budget) alone — byte-identical at any [-j].
     Flight-recorder post-mortems are likewise sequential re-executions
     of the (deterministic) shrunk configs: the tracer is not shared
     across domains, and the canonical events carry no wall clock. *)
  let hits =
    Pool.fold_runs ~jobs ~metrics budget ~init:[]
      ~fold:(fun hits -> function None -> hits | Some hit -> hit :: hits)
      (fun ~metrics i ->
        let c = gen_config ?inject ~seed i in
        match Monitor.run_config ~telemetry:metrics c with
        | None -> None
        | Some v -> Some (i, c, v))
  in
  let findings =
    List.rev hits
    |> List.map (fun (index, original, first) ->
           let shrunk = Shrink.minimize ~violation:first original in
           let postmortem =
             if not flight then []
             else
               match Monitor.postmortem shrunk.Shrink.config with
               | Some (_, events) -> events
               | None -> [] (* shrink oracle guarantees this can't happen *)
           in
           { index; original; first; shrunk; postmortem })
  in
  { seed; budget; findings }

let to_entries report =
  List.map
    (fun f ->
      {
        Corpus.config = f.shrunk.Shrink.config;
        violation = f.shrunk.Shrink.violation;
        original = Some f.original;
        shrink_attempts = f.shrunk.Shrink.attempts;
        postmortem = List.map Obs.Tracer.event_json f.postmortem;
      })
    report.findings

let finding_json f =
  Obs.Json.Obj
    [
      ("index", Obs.Json.Int f.index);
      ("first", Monitor.violation_json f.first);
      ("violation", Monitor.violation_json f.shrunk.Shrink.violation);
      ("original", Config.json f.original);
      ("minimal", Config.json f.shrunk.Shrink.config);
      ("shrink_attempts", Obs.Json.Int f.shrunk.Shrink.attempts);
      ("shrink_steps", Obs.Json.Int f.shrunk.Shrink.steps);
      (* a count, not the events: reports stay compact and diff clean
         whether or not the recorder ran (see the corpus for the events) *)
      ("postmortem_events", Obs.Json.Int (List.length f.postmortem));
    ]

(* deliberately no wall-clock field: CI diffs these across [-j] *)
let report_json r =
  Obs.Json.Obj
    [
      ("kind", Obs.Json.Str "chaos_report");
      ("seed", Obs.Json.Str (Int64.to_string r.seed));
      ("budget", Obs.Json.Int r.budget);
      ("violations", Obs.Json.Int (List.length r.findings));
      ("findings", Obs.Json.List (List.map finding_json r.findings));
    ]
