(* The five workloads of the repository benchmark.

   Each workload is a fixed list of requests, each one call (or, for
   serve, one stream of calls) into the public library.  [prepare] is the
   set-up the benchmark times: it generates the inputs of every request
   from the seed and nothing more.  A pass runs every request once, in
   order; [request] times only its library calls, pushes its latency
   samples and records its outputs so [verify] can check them afterwards.
   [traced_rep] runs one request's inputs through the calls of each layer
   one at a time under the span recorder, and [layers] turns the recorded
   spans into per-layer figures. *)

module J = Obs.Json
module M = Obs.Metrics
module Fleet = Core.Fleet
module Serve = Core.Serve
module Lincheck = Core.Lincheck
module Treecheck = Core.Treecheck
module Histgen = Core.Histgen

type rep = { units : int; failed : int; wall_s : float }

type prepared = {
  digest : string;  (** of the generated inputs *)
  requests : int;  (** requests in one pass; a pass covers every input once *)
  request : metrics:M.t -> lat:Stats.Buf.t -> int -> rep;
  verify : unit -> (string * bool) list;
  extra : metrics:M.t -> units:int -> (string * float) list;
      (** per-layer figures the registry alone does not hold *)
  alloc_pass : unit -> int;  (** one pass at -j 1; returns its units *)
  traced_rep : Spans.t -> int -> int;  (** request [i] under spans; its units *)
  traced_checks : unit -> (string * bool) list;
  layers : Spans.t -> units:int -> (string * float) list;
}

type t = {
  name : string;
  unit_name : string;
  salt : int;
  prepare : seed:int64 -> smoke:bool -> prepared;
}

let us_since t0 = float_of_int (Stats.now_ns () - t0) *. 1e-3
let ratio a b = if b = 0. then 0. else a /. b

(* Request [i]'s output across passes: the first pass records it, and a
   later pass whose output differs clears [same]. *)
let track outs same i x =
  match outs.(i) with
  | None -> outs.(i) <- Some x
  | Some o -> if o <> x then same := false

(* Request [i]'s own seed: adjacent, so one workload seed names them all. *)
let nth_seed seed i = Int64.add seed (Int64.of_int i)

(* ----- fleet ---------------------------------------------------------------- *)

(* E15's fleet: one-op sessions on single-writer ABD under link faults, a
   crash/recovery pair and per-destination batching. *)
let abd_faulty ~ops ~seed =
  {
    Fleet.default with
    Fleet.shards = 8;
    proto = Fleet.Sw;
    slots = 4;
    ops;
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
    batch_window = 8;
    batch_max = 8;
    seed;
    sample = 2;
  }

(* Write-heavy multi-writer sessions on clean links, no batching. *)
let mwabd ~ops ~seed =
  {
    Fleet.default with
    Fleet.shards = 8;
    proto = Fleet.Mw;
    slots = 4;
    ops;
    session_len = 4;
    write_ratio = 0.5;
    keys = 256;
    faults = Core.Faults.none;
    persist = `Every;
    batch_window = 0;
    batch_max = 1;
    seed;
    sample = 2;
  }

(* A request is one [Fleet.run] of [ops] operations on its own seed, as
   one [rlin fleet] invocation; its latency is the whole run's. *)
let fleet ~jobs ~config ~ops ~seed ~smoke =
  let requests = if smoke then 2 else 4 in
  let ops = if smoke then 500 else ops in
  let cfgs = Array.init requests (fun i -> config ~ops ~seed:(nth_seed seed i)) in
  Array.iter Fleet.validate cfgs;
  (* every shard must complete exactly the operations the key hash gives it *)
  let plans = Array.map Fleet.ops_per_shard cfgs in
  let outs = Array.make requests None and same = ref true in
  let completed = ref true and fails = ref 0 and planned = ref true in
  let unknowns = ref 0 and segments = ref 0 in
  let check i r =
    track outs same i (J.to_string (Fleet.report_json r));
    if not r.Fleet.completed then completed := false;
    List.iter
      (fun s -> if s.Fleet.shard_ops <> plans.(i).(s.Fleet.index) then planned := false)
      r.Fleet.shards_r;
    fails := !fails + r.Fleet.total_fails
  in
  let request ~metrics ~lat i =
    let t0 = Stats.now_ns () in
    let r = Fleet.run ~jobs ~metrics cfgs.(i) in
    let us = us_since t0 in
    Stats.Buf.push lat us;
    check i r;
    unknowns := !unknowns + r.Fleet.total_unknowns;
    segments := !segments + r.Fleet.total_segments;
    { units = r.Fleet.total_ops; failed = ops - r.Fleet.total_ops; wall_s = us *. 1e-6 }
  in
  {
    digest =
      Digest.to_hex
        (Digest.string
           (String.concat "\n"
              (List.map (fun c -> J.to_string (Fleet.config_json c)) (Array.to_list cfgs))));
    requests;
    request;
    verify =
      (fun () ->
        [
          ("every shard completed", !completed);
          ("every shard completed its planned ops", !planned);
          ("no Fail verdicts", !fails = 0);
          ("report identical across passes", !same);
        ]);
    extra =
      (fun ~metrics:_ ~units:_ ->
        [ ("serve.unknown_frac", ratio (float_of_int !unknowns) (float_of_int !segments)) ]);
    alloc_pass =
      (fun () ->
        Array.fold_left
          (fun n c -> n + (Fleet.run ~jobs:1 ~metrics:(M.create ()) c).Fleet.total_ops)
          0 cfgs);
    traced_rep =
      (fun tr i ->
        let i = i mod requests in
        let run = Spans.name tr "fleet.run" in
        let r =
          Spans.span tr run ~unit:i (fun () ->
              Fleet.run ~jobs ~metrics:(M.create ()) cfgs.(i))
        in
        check i r;
        r.Fleet.total_ops);
    traced_checks =
      (fun () ->
        [
          ( "traced runs complete their planned ops, identically",
            !completed && !planned && !same );
        ]);
    layers =
      (fun tr ~units ->
        let run = Spans.total_s tr "fleet.run" in
        [ ("traced_us_per_unit", run *. 1e6 /. float_of_int units) ]);
  }

(* ----- serve ---------------------------------------------------------------- *)

(* One JSONL stream over [objects] registers: each object's histories
   (Histgen, 12 ops on 4 processes, three atomic to one arbitrary) are
   laid end to end, and the objects' events are interleaved by time. *)
let serve_stream ~seed ~histories =
  let rand = Random.State.make [| Int64.to_int seed land 0x3FFFFFFF; 0x5E4E |] in
  let spec = { Histgen.default_spec with Histgen.n_ops = 12; n_procs = 4 } in
  let objects = 8 in
  let next_id = ref 0 in
  let per_object o =
    let obj = Printf.sprintf "R%d" o in
    let evs = ref [] and toff = ref 0 in
    for k = 0 to (histories / objects) - 1 do
      let h =
        if k mod 4 = 3 then Histgen.arbitrary_history spec rand
        else Histgen.atomic_history spec rand
      in
      let base = !next_id and maxt = ref !toff in
      List.iter
        (fun { Core.Event.time; event } ->
          let time = time + !toff in
          maxt := max !maxt time;
          let ev =
            match event with
            | Core.Event.Invoke { op_id; proc; kind; _ } ->
                next_id := max !next_id (base + op_id + 1);
                Serve.Ingest.Invoke { op_id = base + op_id; proc; obj; kind }
            | Core.Event.Respond { op_id; result } ->
                Serve.Ingest.Respond { op_id = base + op_id; result }
          in
          evs := (time, ev) :: !evs)
        (Core.Hist.events h);
      toff := !maxt + 1
    done;
    Array.of_list (List.rev !evs)
  in
  let all = Array.concat (List.init objects per_object) in
  Array.stable_sort (fun (a, _) (b, _) -> Int.compare a b) all;
  Array.mapi
    (fun i (_, ev) -> J.to_string (Serve.Ingest.event_json ~time:(i + 1) ev))
    all

(* A request is one replay of the whole stream into a fresh engine; its
   latency samples are the [feed_line] calls during which a verdict was
   emitted. *)
let serve ~seed ~smoke =
  let lines = serve_stream ~seed ~histories:(if smoke then 64 else 4_000) in
  let outs = [| None |] and same = ref true in
  let quarantined = ref 0 and unknowns = ref 0 and verdicts = ref 0 in
  let replay ~metrics ~lat =
    let out = ref [] and n = ref 0 in
    let emit v =
      out := v :: !out;
      incr n
    in
    let t0 = Stats.now_ns () in
    let e = Serve.Engine.create ~metrics ~emit () in
    Array.iter
      (fun l ->
        let before = !n and t = Stats.now_ns () in
        Serve.Engine.feed_line e l;
        if !n <> before then Stats.Buf.push lat (us_since t))
      lines;
    Serve.Engine.finish e;
    let wall_s = us_since t0 *. 1e-6 in
    (e, List.rev !out, wall_s)
  in
  let request ~metrics ~lat _ =
    let e, out, wall_s = replay ~metrics ~lat in
    track outs same 0 out;
    quarantined := !quarantined + Serve.Engine.quarantined e;
    unknowns := !unknowns + Serve.Engine.unknown e;
    verdicts := !verdicts + Serve.Engine.verdicts e;
    { units = Serve.Engine.events e; failed = Serve.Engine.unknown e; wall_s }
  in
  let init = Serve.Engine.default_config.Serve.Engine.init in
  let seg_config = Serve.Engine.default_config.Serve.Engine.seg in
  {
    digest = Digest.to_hex (Digest.string (String.concat "\n" (Array.to_list lines)));
    requests = 1;
    request;
    verify =
      (fun () ->
        let reference = Serve.Reference.run (Array.to_list lines) in
        let engine = Option.value outs.(0) ~default:[] in
        let c =
          Serve.Reference.compare_verdicts ~engine
            ~reference:reference.Serve.Reference.verdicts
        in
        [
          ("no quarantined lines", !quarantined = 0);
          ( "verdicts equal Serve.Reference",
            Serve.Reference.agreed c && c.Serve.Reference.skipped = 0 );
          ("verdicts identical across passes", !same);
        ]);
    extra =
      (fun ~metrics:_ ~units:_ ->
        [ ("serve.unknown_frac", ratio (float_of_int !unknowns) (float_of_int !verdicts)) ]);
    alloc_pass =
      (fun () ->
        let e, _, _ = replay ~metrics:(M.create ()) ~lat:(Stats.Buf.create ()) in
        Serve.Engine.events e);
    traced_rep =
      (fun tr _ ->
        let feed = Spans.name tr "serve.engine.feed_line" in
        let parse = Spans.name tr "obs.json.of_string" in
        let ingest = Spans.name tr "serve.ingest.parse_json" in
        let segment = Spans.name tr "serve.segmenter" in
        let out = ref [] in
        let emit v = out := v :: !out in
        let e = Serve.Engine.create ~metrics:(M.create ()) ~emit () in
        Array.iteri
          (fun k l -> Spans.span tr feed ~unit:k (fun () -> Serve.Engine.feed_line e l))
          lines;
        Serve.Engine.finish e;
        track outs same 0 (List.rev !out);
        (* the layers under feed_line, each called on its own: parse and
           ingest every line, then feed the parsed events straight to
           per-object segmenters *)
        let parsed =
          Array.mapi
            (fun k l ->
              match Spans.span tr parse ~unit:k (fun () -> J.of_string l) with
              | Error _ -> None
              | Ok j -> (
                  match
                    Spans.span tr ingest ~unit:k (fun () ->
                        Serve.Ingest.parse_json j)
                  with
                  | Ok (Serve.Ingest.Event { time; ev }) -> Some (time, ev)
                  | Ok (Serve.Ingest.Annotation _) | Error _ -> None))
            lines
        in
        let metrics = M.create () in
        let segs = Hashtbl.create 16 and owner = Hashtbl.create 4096 in
        let segmenter obj =
          match Hashtbl.find_opt segs obj with
          | Some s -> s
          | None ->
              let s =
                Serve.Segmenter.create ~metrics ~config:seg_config ~obj
                  ~entry:(Serve.Segmenter.entry_exact [ init ])
                  ~index:0 ()
              in
              Hashtbl.replace segs obj s;
              s
        in
        Array.iteri
          (fun k p ->
            match p with
            | None -> ()
            | Some (time, Serve.Ingest.Invoke { op_id; obj; kind; _ }) ->
                let s = segmenter obj in
                Hashtbl.replace owner op_id s;
                ignore
                  (Spans.span tr segment ~unit:k (fun () ->
                       Serve.Segmenter.invoke s ~id:op_id ~kind ~time))
            | Some (time, Serve.Ingest.Respond { op_id; result }) -> (
                match Hashtbl.find_opt owner op_id with
                | None -> ()
                | Some s ->
                    Hashtbl.remove owner op_id;
                    ignore
                      (Spans.span tr segment ~unit:k (fun () ->
                           Serve.Segmenter.respond s ~id:op_id ~result ~time))))
          parsed;
        Hashtbl.iter (fun _ s -> ignore (Serve.Segmenter.flush s)) segs;
        Array.length lines);
    traced_checks =
      (fun () -> [ ("traced verdicts identical to the measured run's", !same) ]);
    layers =
      (fun tr ~units ->
        let feed = Spans.total_s tr "serve.engine.feed_line" in
        let parse = Spans.self_s tr "obs.json.of_string" in
        let ingest = Spans.self_s tr "serve.ingest.parse_json" in
        let segment = Spans.self_s tr "serve.segmenter" in
        [
          ("traced_us_per_unit", feed *. 1e6 /. float_of_int units);
          ("obs.json_parse_frac", ratio parse feed);
          ("serve.ingest_frac", ratio ingest feed);
          ("serve.segmenter_frac", ratio segment feed);
          ("serve.dispatch_frac", 1. -. ratio (parse +. ingest +. segment) feed);
        ]);
  }

(* ----- check ---------------------------------------------------------------- *)

(* What [rlin check --tree] reports per history: the decision's witness
   and the tree check's write orders, as op ids; [None] for Too_large. *)
type verdict = (int list option * int list list option) option

(* A request is one history through the whole [rlin check --tree -j 2]
   path. *)
let check ~seed ~smoke =
  let count = if smoke then 20 else 1_000 in
  let rand = Random.State.make [| Int64.to_int seed land 0x3FFFFFFF; 0xC0FFEE |] in
  let spec = { Histgen.default_spec with Histgen.n_ops = 8; n_procs = 3 } in
  let init = spec.Histgen.init in
  (* alternating families, as [rlin check --family mixed] draws them *)
  let hists =
    Array.init count (fun i ->
        if i mod 2 = 0 then Histgen.atomic_history spec rand
        else Histgen.arbitrary_history spec rand)
  in
  let decide ~jobs ~metrics h =
    match Lincheck.prep ~cap:(Lincheck.effective_cap ~jobs) ~init h with
    | exception Lincheck.Too_large _ -> None
    | p -> (
        let w = Lincheck.decide_prepped ~metrics ~jobs p in
        match
          Treecheck.write_strong_witness ~metrics ~jobs ~init
            (Treecheck.of_prefixes h)
        with
        | exception Lincheck.Too_large _ -> None
        | t -> Some (w, t))
  in
  let normalize : _ -> verdict =
    Option.map (fun (w, t) ->
        ( Option.map (List.map (fun (o : Core.Op.t) -> o.Core.Op.id)) w,
          Option.map (List.map snd) t ))
  in
  let outs : verdict option array = Array.make count None and same = ref true in
  let request ~metrics ~lat i =
    let t0 = Stats.now_ns () in
    let v = normalize (decide ~jobs:2 ~metrics hists.(i)) in
    let us = us_since t0 in
    Stats.Buf.push lat us;
    track outs same i v;
    { units = 1; failed = (if v = None then 1 else 0); wall_s = us *. 1e-6 }
  in
  let states_j1 = ref 0 and traced_agree = ref true in
  {
    digest = Digest.to_hex (Digest.string (Marshal.to_string hists []));
    requests = count;
    request;
    verify =
      (fun () ->
        let m1 = M.create () in
        let agree = ref true in
        Array.iteri
          (fun i h ->
            let v = normalize (decide ~jobs:1 ~metrics:m1 h) in
            if outs.(i) <> Some v then agree := false)
          hists;
        states_j1 := M.counter m1 "linchk.states";
        [
          ("verdicts and witnesses at -j 2 equal -j 1", !agree);
          ("outputs identical across passes", !same);
        ]);
    extra =
      (fun ~metrics ~units ->
        let per_j2 =
          ratio (float_of_int (M.counter metrics "linchk.states")) (float_of_int units)
        in
        let per_j1 = ratio (float_of_int !states_j1) (float_of_int count) in
        [ ("linchk.states_ratio_j2", ratio per_j2 per_j1) ]);
    alloc_pass =
      (fun () ->
        let m = M.create () in
        Array.iter (fun h -> ignore (decide ~jobs:1 ~metrics:m h)) hists;
        count);
    traced_rep =
      (fun tr i ->
        let i = i mod count in
        let name = Spans.name tr in
        let root = name "check.history" and prep = name "linchk.prep" in
        let d2 = name "linchk.decide.j2" and t2 = name "linchk.tree.j2" in
        let d1 = name "linchk.decide.j1" and t1 = name "linchk.tree.j1" in
        let m = M.create () in
        let h = hists.(i) in
        Spans.span tr root ~unit:i (fun () ->
            match
              Spans.span tr prep ~unit:i (fun () ->
                  Lincheck.prep ~cap:(Lincheck.effective_cap ~jobs:2) ~init h)
            with
            | exception Lincheck.Too_large _ -> ()
            | p ->
                let decide jobs () = Lincheck.decide_prepped ~metrics:m ~jobs p in
                let tree jobs () =
                  List.map snd
                    (Option.value ~default:[]
                       (Treecheck.write_strong_witness ~metrics:m ~jobs ~init
                          (Treecheck.of_prefixes h)))
                in
                let w2 = Spans.span tr d2 ~unit:i (decide 2) in
                let o2 = Spans.span tr t2 ~unit:i (tree 2) in
                let w1 = Spans.span tr d1 ~unit:i (decide 1) in
                let o1 = Spans.span tr t1 ~unit:i (tree 1) in
                if w1 <> w2 || o1 <> o2 then traced_agree := false);
        1);
    traced_checks =
      (fun () -> [ ("traced verdicts and witnesses at -j 2 equal -j 1", !traced_agree) ]);
    layers =
      (fun tr ~units ->
        let prep = Spans.self_s tr "linchk.prep" in
        let decide = Spans.self_s tr "linchk.decide.j2" in
        let tree = Spans.self_s tr "linchk.tree.j2" in
        let user = prep +. decide +. tree in
        [
          ("traced_us_per_unit", user *. 1e6 /. float_of_int units);
          ("linchk.prep_frac", ratio prep user);
          ("linchk.decide_frac", ratio decide user);
          ("linchk.tree_frac", ratio tree user);
          ( "linchk.decide_j2_j1_p50_ratio",
            ratio (Spans.p50_ns tr "linchk.decide.j2") (Spans.p50_ns tr "linchk.decide.j1") );
          ( "linchk.tree_j2_j1_p50_ratio",
            ratio (Spans.p50_ns tr "linchk.tree.j2") (Spans.p50_ns tr "linchk.tree.j1") );
        ]);
  }

(* ----- chaos ---------------------------------------------------------------- *)

(* A request is one [Chaos.search ~jobs:2] of [budget] configs on its
   own seed, as one [rlin chaos run] invocation.  Set-up generates every
   request's configs, the inputs each search will execute, to fingerprint
   them. *)
let chaos ~seed ~smoke =
  let requests = if smoke then 2 else 10 and budget = if smoke then 20 else 200 in
  let seeds = Array.init requests (nth_seed seed) in
  let configs =
    Array.map (fun seed -> Array.init budget (Core.Chaos.gen_config ~seed)) seeds
  in
  let outs = Array.make requests None and same = ref true and findings = ref 0 in
  let request ~metrics ~lat i =
    let t0 = Stats.now_ns () in
    let r = Core.Chaos.search ~jobs:2 ~telemetry:metrics ~seed:seeds.(i) ~budget () in
    let us = us_since t0 in
    Stats.Buf.push lat us;
    track outs same i (J.to_string (Core.Chaos.report_json r));
    let n = List.length r.Core.Chaos.findings in
    findings := !findings + n;
    { units = budget; failed = n; wall_s = us *. 1e-6 }
  in
  let traced_violations = ref 0 in
  {
    digest =
      Digest.to_hex
        (Digest.string
           (String.concat "\n"
              (List.concat_map
                 (fun cs ->
                   List.map (fun c -> J.to_string (Core.Run_config.json c)) (Array.to_list cs))
                 (Array.to_list configs))));
    requests;
    request;
    verify =
      (fun () ->
        [ ("no violations", !findings = 0); ("report identical across passes", !same) ]);
    extra = (fun ~metrics:_ ~units:_ -> []);
    alloc_pass =
      (fun () ->
        Array.iter (fun seed -> ignore (Core.Chaos.search ~jobs:1 ~seed ~budget ())) seeds;
        requests * budget);
    traced_rep =
      (fun tr k ->
        let k = k mod requests in
        let root = Spans.name tr "chaos.config" in
        let gen = Spans.name tr "check.gen_config" in
        let exec = Spans.name tr "msgpass.execute_config" in
        let monitors =
          List.map
            (fun (m : Core.Monitor.t) -> (m, Spans.name tr ("check.monitor." ^ m.name)))
            Core.Monitor.standard
        in
        for i = 0 to budget - 1 do
          let unit = (k * budget) + i in
          Spans.span tr root ~unit (fun () ->
              let config =
                Spans.span tr gen ~unit (fun () -> Core.Chaos.gen_config ~seed:seeds.(k) i)
              in
              let metrics = M.create () in
              let run =
                Spans.span tr exec ~unit (fun () ->
                    Core.Abd_runs.execute_config ~metrics config)
              in
              List.iter
                (fun ((m : Core.Monitor.t), name) ->
                  match
                    Spans.span tr name ~unit (fun () -> m.check ~config ~run ~metrics)
                  with
                  | None -> ()
                  | Some _ -> incr traced_violations)
                monitors)
        done;
        budget);
    traced_checks =
      (fun () -> [ ("no violations in traced configs", !traced_violations = 0) ]);
    layers =
      (fun tr ~units ->
        let root = Spans.total_s tr "chaos.config" in
        let lin = Spans.self_s tr "check.monitor.linearizability" in
        let monitors =
          List.fold_left
            (fun acc (m : Core.Monitor.t) ->
              acc +. Spans.self_s tr ("check.monitor." ^ m.name))
            0. Core.Monitor.standard
        in
        [
          ("traced_us_per_unit", root *. 1e6 /. float_of_int units);
          ("check.gen_config_frac", ratio (Spans.self_s tr "check.gen_config") root);
          ("msgpass.execute_frac", ratio (Spans.self_s tr "msgpass.execute_config") root);
          ("check.monitor_lin_frac", ratio lin root);
          ("check.monitor_rest_frac", ratio (monitors -. lin) root);
        ]);
  }

(* ----- the catalogue -------------------------------------------------------- *)

let all =
  [
    {
      name = "fleet-abd-faulty";
      unit_name = "op";
      salt = 1;
      prepare = fleet ~jobs:1 ~config:abd_faulty ~ops:10_000;
    };
    {
      name = "fleet-mwabd-j2";
      unit_name = "op";
      salt = 2;
      prepare = fleet ~jobs:2 ~config:mwabd ~ops:15_000;
    };
    { name = "serve-replay"; unit_name = "event"; salt = 3; prepare = serve };
    { name = "check-tree-j2"; unit_name = "history"; salt = 4; prepare = check };
    { name = "chaos-j2"; unit_name = "config"; salt = 5; prepare = chaos };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

(* The workload's own seed: the suite seed spread by a per-workload salt,
   so workloads draw unrelated inputs from one [--seed]. *)
let derive_seed w seed =
  Int64.add (Int64.mul (Int64.of_int seed) 0x9E3779B97F4A7C15L) (Int64.of_int w.salt)
