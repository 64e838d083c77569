(* Tests for the streaming serve checker: the incremental reachable-set
   checker against the offline decision procedure, the engine against the
   reference oracle and the offline checker on replayed traces, ingest
   quarantine, budget degradation, backpressure shedding and
   checkpoint/resume plumbing. *)

module V = Core.Value
module Op = Core.Op
module Event = Core.Event
module Hist = Core.Hist
module L = Core.Lincheck
module Gen = Core.Histgen
module Inc = Core.Increment
module Serve = Core.Serve
module Seg = Serve.Segmenter
module Engine = Serve.Engine
module Verdict = Serve.Verdict
module Reference = Serve.Reference
module Checkpoint = Serve.Checkpoint
module Ingest = Serve.Ingest
module J = Core.Json
module Config = Core.Abd_runs.Config

let tc name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ---------- incremental checker vs the offline decision procedure ----- *)

(* a decider's [invoke] and [respond] fed a history, its ops numbered in
   invocation order as the segmenter numbers them *)
let feed_numbered ~invoke ~respond hist =
  let ops = Hashtbl.create 16 in
  List.iter
    (fun { Event.time; event } ->
      match event with
      | Event.Invoke { op_id; kind; _ } ->
          let op = Hashtbl.length ops in
          Hashtbl.replace ops op_id op;
          invoke ~op ~kind ~time
      | Event.Respond { op_id; result } ->
          respond ~op:(Hashtbl.find ops op_id) ~result ~time)
    (Hist.events hist)

let feed inc hist =
  feed_numbered ~invoke:(Inc.invoke inc) ~respond:(Inc.respond inc) hist

let feed_increment ?metrics ?state_budget ~entry hist =
  let inc = Inc.create ?metrics ?state_budget ~entry () in
  feed inc hist;
  Inc.outcome inc

(* the self-check's decider, fed the same events *)
let feed_offline ~entry hist =
  let d =
    Reference.offline ~metrics:(Obs.Metrics.create ()) Seg.default_config
      ~entry
  in
  feed_numbered ~invoke:d.Seg.invoke ~respond:d.Seg.respond hist;
  d.Seg.outcome ()

(* a segmenter of object "R" from the value 0, at [config] *)
let segmenter ~metrics config =
  Seg.create ~metrics ~config ~obj:"R"
    ~entry:(Seg.entry_exact [ V.Int 0 ])
    ~index:0 ()

(* a history fed to a segmenter: the verdicts it retires, then its
   end-of-stream flush *)
let feed_segmenter seg hist =
  let ok = function Ok v -> v | Error e -> Alcotest.fail e in
  let retired =
    List.filter_map
      (fun { Event.time; event } ->
        match event with
        | Event.Invoke { op_id; kind; _ } ->
            ok (Seg.invoke seg ~id:op_id ~kind ~time);
            None
        | Event.Respond { op_id; result } ->
            ok (Seg.respond seg ~id:op_id ~result ~time))
      (Hist.events hist)
  in
  retired @ Option.to_list (Seg.flush seg)

let spec = { Gen.default_spec with Gen.n_procs = 3; n_ops = 12 }

(* [w] concurrent writes of 1..[w] and [r] concurrent reads of 0, every
   op overlapping every other: 2^r reachable states before any write and
   2^r * w * 2^(w-1) after, so 2,112 states at w = 4 and r = 6, far more
   than a reset keeps the storage for. *)
let wide_segment ~w ~r =
  let n = w + r in
  let op i =
    if i <= w then
      Op.make ~id:i ~proc:i ~obj:"R" ~kind:(Op.Write (V.Int i)) ~invoked:i
        ~responded:(n + i) ()
    else
      Op.make ~id:i ~proc:i ~obj:"R" ~kind:Op.Read ~invoked:i
        ~responded:(n + i) ~result:(V.Int 0) ()
  in
  Hist.of_ops (List.init n (fun i -> op (i + 1)))

let increment_tests =
  [
    tc "incremental verdict = offline verdict on 200 seeded histories"
      (fun () ->
        let rand = Random.State.make [| 0xC0FFEE |] in
        let run gen =
          let h = QCheck.Gen.generate1 ~rand gen in
          let offline = L.check ~init:spec.Gen.init h in
          let outcome = feed_increment ~entry:[ spec.Gen.init ] h in
          (* the same feasible final values, in the same order *)
          check_bool "offline decider agrees" true
            (feed_offline ~entry:[ spec.Gen.init ] h = outcome);
          match outcome with
          | Inc.Pass _ -> check_bool "offline agrees on pass" true offline
          | Inc.Fail -> check_bool "offline agrees on fail" false offline
          | Inc.Unknown _ ->
              Alcotest.fail "unexpected unknown without a budget"
        in
        for _ = 1 to 100 do
          run (Gen.arbitrary_history spec)
        done;
        for _ = 1 to 100 do
          run (Gen.atomic_history spec)
        done);
    tc "reset gives a fresh checker's verdicts" (fun () ->
        let rand = Random.State.make [| 0x5E5E7 |] in
        let history k =
          if k = 45 then wide_segment ~w:4 ~r:6
          else if k mod 2 = 0 then Gen.atomic_history spec rand
          else Gen.arbitrary_history spec rand
        in
        let same k reused fresh =
          let what = Printf.sprintf "segment %d: %s" k in
          check_bool (what "outcome") true
            (Inc.outcome reused = Inc.outcome fresh);
          check_int (what "states") (Inc.states fresh) (Inc.states reused);
          check_bool (what "degraded") true
            (Inc.degraded reused = Inc.degraded fresh)
        in
        (* at the default state budget and at 60, which the wide segment
           trips; every 7th segment starts in entry overflow, as the
           segmenter degrades it *)
        List.iter
          (fun state_budget ->
            let metrics = Obs.Metrics.create () in
            let reused =
              Inc.create ~metrics ~state_budget ~entry:[ spec.Gen.init ] ()
            in
            let entry = ref [ spec.Gen.init ] in
            for k = 0 to 89 do
              let h = history k in
              if k > 0 then Inc.reset reused ~entry:!entry;
              let fresh = Inc.create ~metrics ~state_budget ~entry:!entry () in
              same k reused fresh;
              if k mod 7 = 6 then
                List.iter
                  (fun c -> Inc.degrade c (Inc.Entry_overflow { cap = 1 }))
                  [ reused; fresh ];
              feed reused h;
              feed fresh h;
              same k reused fresh;
              entry :=
                match Inc.outcome fresh with
                | Inc.Pass vs -> vs
                | Inc.Fail | Inc.Unknown _ -> [ spec.Gen.init; V.Int 3 ]
            done)
          [ Inc.default_state_budget; 60 ];
        (* the op cap lives in the segmenter: at a cap of 10 and a state
           budget of 60, one segmenter pointed at every segment's entry
           set in turn restarts its checker, and must retire what a new
           segmenter does *)
        let config =
          { Seg.default_config with Seg.seg_cap = 10; state_budget = 60 }
        in
        let metrics = Obs.Metrics.create () in
        let reused = segmenter ~metrics config in
        let causes = ref [] in
        for k = 0 to 89 do
          let h = history k in
          let entry =
            (* the wide segment's reads return the initial value *)
            if k = 45 then Seg.entry_exact [ spec.Gen.init ]
            else { (Seg.entry reused) with Seg.overflow = k mod 7 = 6 }
          and index = Seg.index reused in
          Seg.reassign reused ~obj:"R" ~entry ~index;
          let fresh = Seg.create ~metrics ~config ~obj:"R" ~entry ~index () in
          let vs = feed_segmenter reused h in
          check_bool (Printf.sprintf "segment %d: verdicts" k) true
            (List.equal Verdict.equal (feed_segmenter fresh h) vs);
          List.iter
            (fun v ->
              match v.Verdict.outcome with
              | Verdict.Unknown r -> causes := Inc.reason_cause r :: !causes
              | _ -> ())
            vs
        done;
        List.iter
          (fun cause ->
            check_bool (cause ^ " unknowns") true (List.mem cause !causes))
          [ "op-cap"; "state-budget"; "entry-overflow" ];
        (* storage: after the wide segment, and after a degraded one, a
           reset checker holds what a fresh one does *)
        let entry = [ V.Int 0 ] in
        let words c = Obj.reachable_words (Obj.repr c) in
        let fresh_words = words (Inc.create ~entry ()) in
        let c = Inc.create ~entry () in
        feed c (wide_segment ~w:4 ~r:6);
        check_int "the wide segment's states" 2_112 (Inc.states c);
        check_bool "its storage grew" true (words c > 4 * fresh_words);
        Inc.reset c ~entry;
        check_int "reset to create's storage" fresh_words (words c);
        Inc.degrade c (Inc.Shed { pending = 1; max_pending = 1 });
        Inc.reset c ~entry;
        check_int "rebuilt after degrade" fresh_words (words c));
    tc "state budget degrades to a structured unknown" (fun () ->
        let rand = Random.State.make [| 0xBEEF |] in
        let h = QCheck.Gen.generate1 ~rand (Gen.atomic_history spec) in
        match feed_increment ~state_budget:1 ~entry:[ spec.Gen.init ] h with
        | Inc.Unknown (Inc.State_budget { budget; _ }) ->
            check_int "budget echoed" 1 budget
        | _ -> Alcotest.fail "expected a state-budget unknown");
    tc "op cap degrades to a structured unknown" (fun () ->
        (* four overlapping ops, one segment, at an op cap of 2: the
           segmenter trips at the third invoke and reports all four *)
        let seg =
          segmenter ~metrics:(Obs.Metrics.create ())
            { Seg.default_config with Seg.seg_cap = 2 }
        in
        match feed_segmenter seg (wide_segment ~w:2 ~r:2) with
        | [
         {
           Verdict.outcome = Verdict.Unknown (Inc.Op_cap { n; cap });
           ops;
           closed = true;
           _;
         };
        ] ->
            check_int "cap echoed" 2 cap;
            check_int "the final op count" 4 n;
            check_int "the segment's ops" 4 ops
        | _ -> Alcotest.fail "expected one op-cap unknown");
    tc "a flushed segment's op-cap count includes its pending reads"
      (fun () ->
        (* two writes respond and a read is still open at end of stream:
           the offline prep drops the read and counts 2 ops, within a cap
           of 2, but the segmenter counted the read's invoke as it came *)
        let seg =
          segmenter ~metrics:(Obs.Metrics.create ())
            { Seg.default_config with Seg.seg_cap = 2 }
        in
        let ok = function Ok v -> v | Error e -> Alcotest.fail e in
        let write id = Op.Write (V.Int id) in
        ok (Seg.invoke seg ~id:1 ~kind:(write 1) ~time:1);
        ok (Seg.invoke seg ~id:2 ~kind:(write 2) ~time:2);
        ok (Seg.invoke seg ~id:3 ~kind:Op.Read ~time:3);
        check_bool "no retire" true
          (ok (Seg.respond seg ~id:1 ~result:None ~time:4) = None
          && ok (Seg.respond seg ~id:2 ~result:None ~time:5) = None);
        match Seg.flush seg with
        | Some
            {
              Verdict.outcome = Verdict.Unknown (Inc.Op_cap { n = 3; cap = 2 });
              ops = 3;
              closed = false;
              _;
            } ->
            ()
        | _ -> Alcotest.fail "expected an op-cap unknown counting 3 ops");
  ]

(* ---------- chunked line reader ---------------------------------------- *)

let reader_tests =
  [
    tc "partial tails are buffered across chunks" (fun () ->
        let r = Ingest.Reader.create () in
        Alcotest.(check (list string))
          "first chunk" [ "a" ]
          (Ingest.Reader.feed r "a\nb");
        Alcotest.(check (option string))
          "fragment pending" (Some "b") (Ingest.Reader.pending r);
        Alcotest.(check (list string))
          "fragment completed" [ "bc"; "" ]
          (Ingest.Reader.feed r "c\n\nd");
        Alcotest.(check (option string))
          "unterminated final line" (Some "d")
          (Ingest.Reader.take_rest r);
        Alcotest.(check (option string))
          "rest is consumed" None
          (Ingest.Reader.take_rest r));
  ]

(* ---------- engine vs reference oracle vs offline on replayed traces --- *)

let serve ?decide ?config lines =
  let verdicts = ref [] in
  let quarantined = ref [] in
  let engine =
    Engine.create ?decide ?config
      ~emit:(fun v -> verdicts := v :: !verdicts)
      ~on_quarantine:(fun ~line reason -> quarantined := (line, reason) :: !quarantined)
      ()
  in
  List.iter (Engine.feed_line engine) lines;
  Engine.finish engine;
  (engine, List.rev !verdicts, List.rev !quarantined)

let trace_lines trace = List.map J.to_string (Core.Trace.json_entries trace)

let workload i =
  let seed = Int64.of_int (4200 + i) in
  if i mod 3 = 0 then (
    let r =
      Core.Abd_runs.execute_config
        {
          Test_abd.shape with
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
      Core.Scenario.random_alg2_run ~n:3 ~writes_per_proc:2 ~reads_per_proc:2
        ~seed ()
    in
    (r.Core.Scenario.trace, r.Core.Scenario.history))
  else (
    let r =
      Core.Scenario.random_alg4_run ~n:3 ~writes_per_proc:2 ~reads_per_proc:2
        ~seed ()
    in
    (r.Core.Scenario.trace, r.Core.Scenario.history))

(* a chaos config with the seeded quorum bug: at indices 46 and 157 of
   this stream the history does not linearize, and 157's stream retires
   a passing segment before the failing one *)
let quorum_bug_run index =
  let r =
    Core.Abd_runs.execute_config
      (Core.Chaos.gen_config ~inject:Core.Chaos.Quorum_too_small
         ~seed:20260805L index)
  in
  (r.Core.Abd_runs.trace, r.Core.Abd_runs.history)

let with_seg seg = { Engine.default_config with Engine.seg }

(* A stream shaped like the serve-replay benchmark's: [per_object]
   12-op histories on 4 processes (three atomic to one arbitrary) for
   each of 8 objects, each object's laid end to end and the objects'
   events interleaved by time.  Most of its segments are a few ops long,
   so what a segment costs shows. *)
let multi_object_stream ~seed ~per_object =
  let rand = Random.State.make [| seed; 0x5E4E |] in
  let spec = { Gen.default_spec with Gen.n_ops = 12; n_procs = 4 } in
  let next_id = ref 0 in
  let object_events o =
    let obj = Printf.sprintf "R%d" o in
    let evs = ref [] and toff = ref 0 in
    for k = 0 to per_object - 1 do
      let h =
        if k mod 4 = 3 then Gen.arbitrary_history spec rand
        else Gen.atomic_history spec rand
      in
      let base = !next_id and maxt = ref !toff in
      List.iter
        (fun { Event.time; event } ->
          let time = time + !toff in
          maxt := max !maxt time;
          let ev =
            match event with
            | Event.Invoke e ->
                next_id := max !next_id (base + e.op_id + 1);
                Event.Invoke { e with op_id = base + e.op_id; obj }
            | Event.Respond e -> Event.Respond { e with op_id = base + e.op_id }
          in
          evs := (time, ev) :: !evs)
        (Hist.events h);
      toff := !maxt + 1
    done;
    List.rev !evs
  in
  List.concat_map object_events (List.init 8 Fun.id)
  |> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.mapi (fun i (_, ev) ->
         J.to_string (Ingest.event_json ~time:(i + 1) ev))

(* The decider before each object kept one: a new incremental checker
   for every segment. *)
let fresh_per_segment ~metrics cfg ~entry =
  let cur = ref (Seg.incremental ~metrics cfg ~entry) in
  {
    Seg.invoke = (fun ~op ~kind ~time -> !cur.Seg.invoke ~op ~kind ~time);
    respond = (fun ~op ~result ~time -> !cur.Seg.respond ~op ~result ~time);
    degrade = (fun r -> !cur.Seg.degrade r);
    degraded = (fun () -> !cur.Seg.degraded ());
    outcome = (fun () -> !cur.Seg.outcome ());
    restart = (fun ~entry -> cur := Seg.incremental ~metrics cfg ~entry);
  }

(* det_oracle's degrading budgets *)
let degrading =
  {
    Engine.default_config with
    Engine.seg = { Seg.default_config with Seg.seg_cap = 3; state_budget = 5 };
    max_pending = 4;
  }

(* a stream cut just before its [k]th-last response, and the history
   prefix it carries: the ops whose responses were cut are still open at
   end of stream *)
let cut_before_last_responses k (trace, hist) =
  let events = Hist.events hist in
  let responds =
    List.filter
      (fun e ->
        match e.Event.event with Event.Respond _ -> true | _ -> false)
      events
  in
  let cut = (List.nth responds (List.length responds - k)).Event.time in
  let before e = Core.Trace.entry_time e < cut in
  ( List.map
      (fun e -> J.to_string (Core.Trace.entry_json e))
      (List.filter before (Core.Trace.entries trace)),
    Hist.of_events_exn (List.filter (fun e -> e.Event.time < cut) events) )

(* [k] objects, each two concurrent writes and then a read: two segments,
   after which the object is idle *)
let idle_objects k =
  let ev ~time e = J.to_string (Ingest.event_json ~time e) in
  List.concat_map
    (fun o ->
      let obj = Printf.sprintf "o%d" o and id = 3 * o and t = 6 * o in
      let invoke i kind =
        Ingest.Invoke { op_id = id + i; proc = i; obj; kind }
      in
      let respond i result = Ingest.Respond { op_id = id + i; result } in
      [
        ev ~time:(t + 1) (invoke 0 (Op.Write (V.Int 1)));
        ev ~time:(t + 2) (invoke 1 (Op.Write (V.Int 2)));
        ev ~time:(t + 3) (respond 0 None);
        ev ~time:(t + 4) (respond 1 None);
        ev ~time:(t + 5) (invoke 2 Op.Read);
        ev ~time:(t + 6) (respond 2 (Some (V.Int 2)));
      ])
    (List.init k Fun.id)

let engine_tests =
  [
    tc "engine = reference oracle = offline on benign and faulty traces"
      (fun () ->
        let whole (trace, hist) = (trace_lines trace, hist) in
        (* workload 3, 6 and 9 are ABD runs, whose every op responds:
           cut short, they end with ops still open *)
        let truncated =
          List.concat_map
            (fun i ->
              List.map
                (fun k -> cut_before_last_responses k (workload i))
                [ 1; 3 ])
            [ 3; 6; 9 ]
        in
        List.iter
          (fun (_, hist) ->
            check_bool "a truncated stream leaves ops open" true
              (Hist.pending_ops hist <> []))
          truncated;
        let inputs =
          List.init 9 (fun i -> whole (workload (i + 1)))
          @ truncated
          @ [ whole (quorum_bug_run 46); whole (quorum_bug_run 157) ]
        in
        (* a small [values_cap] must not change what the oracle says:
           feasible finals range over every value a segment wrote *)
        List.iter
          (fun values_cap ->
            let config =
              with_seg { Seg.default_config with Seg.values_cap }
            in
            let rejected =
              List.map
                (fun (lines, hist) ->
                  let engine, verdicts, _ = serve ~config lines in
                  check_int "no quarantine on a clean stream" 0
                    (Engine.quarantined engine);
                  let offline = L.check ~init:(V.Int 0) hist in
                  check_bool "verdict conjunction = offline" offline
                    (Engine.fail engine = 0);
                  let r = Reference.run ~config lines in
                  let cmp =
                    Reference.compare_verdicts ~engine:verdicts
                      ~reference:r.Reference.verdicts
                  in
                  check_bool "reference agrees" true (Reference.agreed cmp);
                  check_int "no skipped objects" 0 cmp.Reference.skipped;
                  (not offline, List.map (fun v -> v.Verdict.outcome) verdicts))
                inputs
              |> List.filter fst |> List.map snd
            in
            (* the quorum-bug runs are the only rejected ones: one failing
               segment each, and 157's comes after a passing one *)
            match rejected with
            | [ o46; o157 ] ->
                let fails os =
                  List.length (List.filter (( = ) Verdict.Fail) os)
                in
                check_int "index 46: one failing segment" 1 (fails o46);
                check_int "index 157: one failing segment" 1 (fails o157);
                check_bool "index 157: an ok segment precedes it" true
                  (List.hd o157 = Verdict.Ok_)
            | _ -> Alcotest.fail "expected exactly two rejected histories")
          [ 64; 3; 1 ]);
    tc "a reused checker emits a fresh checker's verdicts" (fun () ->
        let lines = multi_object_stream ~seed:7 ~per_object:40 in
        (* det_oracle's budgets trip the state budget and shed; an op cap
           of 3 with 2 entry values trips the op cap and entry overflow *)
        let small_cap =
          with_seg { Seg.default_config with Seg.seg_cap = 3; values_cap = 2 }
        in
        let verdicts =
          List.concat_map
            (fun config ->
              let _, reused, _ = serve ~config lines in
              let _, fresh, _ = serve ~decide:fresh_per_segment ~config lines in
              check_int "as many verdicts" (List.length fresh)
                (List.length reused);
              check_bool "the same verdicts" true
                (List.for_all2 Verdict.equal fresh reused);
              reused)
            [ Engine.default_config; degrading; small_cap ]
        in
        (* so checkers restart after every kind of unknown *)
        List.iter
          (fun cause ->
            check_bool (cause ^ " unknowns") true
              (List.exists
                 (fun v ->
                   match v.Verdict.outcome with
                   | Verdict.Unknown r -> Inc.reason_cause r = cause
                   | _ -> false)
                 verdicts))
          [ "op-cap"; "state-budget"; "shed"; "entry-overflow" ]);
    tc "the oracle decides a full 62-op segment" (fun () ->
        (* one read left open across 61 sequential writes: the segment
           holds Lincheck.max_ops ops, so deciding its feasible finals
           must not add a probe op *)
        let ev ~time e = J.to_string (Ingest.event_json ~time e) in
        let writes =
          List.concat_map
            (fun k ->
              let op_id = k + 2 and time = (2 * k) + 2 in
              [
                ev ~time
                  (Ingest.Invoke
                     { op_id; proc = 2; obj = "R"; kind = Op.Write (V.Int (k + 1)) });
                ev ~time:(time + 1) (Ingest.Respond { op_id; result = None });
              ])
            (List.init 61 Fun.id)
        in
        let lines =
          ev ~time:1
            (Ingest.Invoke { op_id = 1; proc = 1; obj = "R"; kind = Op.Read })
          :: writes
          @ [
              ev ~time:124
                (Ingest.Respond { op_id = 1; result = Some (V.Int 0) });
            ]
        in
        let engine, verdicts, _ = serve lines in
        check_int "one passing 62-op segment" 1 (Engine.ok engine);
        let r = Reference.run lines in
        check_bool "the reference returns the engine's verdicts" true
          (List.length r.Reference.verdicts = List.length verdicts
          && List.for_all2 Verdict.equal r.Reference.verdicts verdicts));
    tc "an idle object costs at most 34 words" (fun () ->
        (* an idle object is its checkpoint record: whether fed its
           segments or restored from a checkpoint, an engine holds no
           segmenter or checker per object.  On OCaml 5.1.1 a fed engine
           holds 22.5 words per object at K = 1,000 and 21.8 at 4,000, a
           restored one 22.0 and 21.6; one that keeps a segmenter and
           checker per object holds 572 *)
        let per_object k engine =
          float_of_int (Obj.reachable_words (Obj.repr engine))
          /. float_of_int k
        in
        List.iter
          (fun k ->
            let metrics = Obs.Metrics.create () in
            let engine = Engine.create ~metrics ~emit:ignore () in
            List.iter (Engine.feed_line engine) (idle_objects k);
            check_int "two verdicts per object" (2 * k) (Engine.ok engine);
            let fed = per_object k engine in
            let restored =
              per_object k
                (Engine.restore ~metrics ~emit:ignore
                   (Option.get (Engine.checkpoint engine)))
            in
            List.iter
              (fun (what, words) ->
                if words > 34. then
                  Alcotest.failf "%s engine at K = %d: %.1f words per object"
                    what k words)
              [ ("a fed", fed); ("a restored", restored) ])
          [ 1_000; 4_000 ]);
    tc "summary json carries the counters" (fun () ->
        let trace, _ = workload 1 in
        let engine, verdicts, _ = serve (trace_lines trace) in
        match Engine.summary_json engine with
        | J.Obj fields ->
            check_bool "kind" true
              (List.assoc_opt "kind" fields = Some (J.Str "serve_summary"));
            check_bool "lines counted" true
              (List.assoc_opt "lines" fields = Some (J.Int (Engine.lines engine)));
            check_int "verdict counters consistent"
              (List.length verdicts)
              (Engine.ok engine + Engine.fail engine + Engine.unknown engine)
        | _ -> Alcotest.fail "summary is not an object");
  ]

(* ---------- ingest quarantine on mutated streams ----------------------- *)

let quarantine_tests =
  [
    tc "corrupt lines are counted with 1-based numbers, never fatal"
      (fun () ->
        let trace, _ = workload 1 in
        let lines = trace_lines trace in
        let _, clean_verdicts, _ = serve lines in
        let stale =
          List.find
            (fun l ->
              match J.of_string l with
              | Ok j -> J.member "kind" j = Some (J.Str "invoke")
              | Error _ -> false)
            lines
        in
        (* leading garbage, an unknown schema kind, a replayed stale
           invoke, and a truncated tail *)
        let mutated =
          ("%% not json %%" :: "{\"kind\":\"mystery\",\"t\":0}" :: lines)
          @ [ stale; "{\"t\":9,\"ki" ]
        in
        let engine, verdicts, quarantined = serve mutated in
        check_int "exactly the injected lines quarantined" 4
          (Engine.quarantined engine);
        Alcotest.(check (list int))
          "1-based line numbers" [ 1; 2; List.length lines + 3; List.length lines + 4 ]
          (List.map fst quarantined);
        check_bool "verdicts unchanged by the mutations" true
          (List.length verdicts = List.length clean_verdicts
          && List.for_all2 Verdict.equal verdicts clean_verdicts));
    tc "non-monotone time and orphan ids quarantine, dup ids too" (fun () ->
        let ev ~time e = J.to_string (Ingest.event_json ~time e) in
        let inv ~t ~id v =
          ev ~time:t
            (Ingest.Invoke
               { op_id = id; proc = id; obj = "r"; kind = Op.Write (V.Int v) })
        in
        let rsp ~t ~id = ev ~time:t (Ingest.Respond { op_id = id; result = None }) in
        let lines =
          [
            inv ~t:1 ~id:1 10;
            inv ~t:1 ~id:2 20 (* equal time: quarantined *);
            inv ~t:2 ~id:1 30 (* duplicate op id: quarantined *);
            rsp ~t:3 ~id:9 (* orphan respond: quarantined *);
            rsp ~t:4 ~id:1;
          ]
        in
        let engine, verdicts, _ = serve lines in
        check_int "three quarantined" 3 (Engine.quarantined engine);
        check_int "one segment retired" 1 (List.length verdicts);
        check_int "and it passes" 1 (Engine.ok engine));
  ]

(* ---------- budget degradation and backpressure ------------------------ *)

let degradation_tests =
  [
    tc "tiny state budget yields explicit state-budget unknowns" (fun () ->
        let trace, _ = workload 1 in
        let lines = trace_lines trace in
        let _, clean, _ = serve lines in
        let _, verdicts, _ =
          serve
            ~config:(with_seg { Seg.default_config with Seg.state_budget = 4 })
            lines
        in
        check_int "every segment still decided" (List.length clean)
          (List.length verdicts);
        check_bool "some state-budget unknown" true
          (List.exists
             (fun v ->
               match v.Verdict.outcome with
               | Verdict.Unknown r -> Inc.reason_cause r = "state-budget"
               | _ -> false)
             verdicts));
    tc "tiny op cap yields explicit op-cap unknowns" (fun () ->
        let trace, _ = workload 1 in
        let _, verdicts, _ =
          serve
            ~config:(with_seg { Seg.default_config with Seg.seg_cap = 2 })
            (trace_lines trace)
        in
        check_bool "some op-cap unknown" true
          (List.exists
             (fun v ->
               match v.Verdict.outcome with
               | Verdict.Unknown r -> Inc.reason_cause r = "op-cap"
               | _ -> false)
             verdicts));
    tc "backpressure sheds the overflowing segment" (fun () ->
        let ev ~time e = J.to_string (Ingest.event_json ~time e) in
        let lines =
          [
            ev ~time:1
              (Ingest.Invoke
                 { op_id = 1; proc = 1; obj = "r"; kind = Op.Write (V.Int 7) });
            ev ~time:2
              (Ingest.Invoke { op_id = 2; proc = 2; obj = "r"; kind = Op.Read });
            ev ~time:3 (Ingest.Respond { op_id = 1; result = None });
            ev ~time:4
              (Ingest.Respond { op_id = 2; result = Some (V.Int 7) });
          ]
        in
        let engine, verdicts, _ =
          serve
            ~config:{ Engine.default_config with Engine.max_pending = 1 }
            lines
        in
        check_bool "events were shed" true (Engine.shed_events engine > 0);
        match verdicts with
        | [ v ] -> (
            match v.Verdict.outcome with
            | Verdict.Unknown (Inc.Shed { max_pending; _ }) ->
                check_int "bound echoed" 1 max_pending
            | _ -> Alcotest.fail "expected a shed unknown")
        | _ -> Alcotest.fail "expected exactly one verdict");
  ]

(* ---------- checkpoint / resume ---------------------------------------- *)

(* what [Checkpoint.of_json] promises of a checkpoint it accepts *)
let well_formed (ck : Checkpoint.t) =
  let names = List.map (fun o -> o.Checkpoint.obj) ck.Checkpoint.objects in
  List.for_all
    (fun n -> n >= 0)
    Checkpoint.
      [
        ck.cursor;
        ck.events;
        ck.annotations;
        ck.quarantined;
        ck.shed_events;
        ck.ok;
        ck.fail;
        ck.unknown;
      ]
  && ck.Checkpoint.last_time >= -1
  && List.for_all (fun o -> o.Checkpoint.index >= 0) ck.Checkpoint.objects
  && List.length (List.sort_uniq String.compare names) = List.length names

let checkpoint_tests =
  [
    tc "checkpoint json round-trips" (fun () ->
        let trace, _ = workload 2 in
        let engine, _, _ = serve (trace_lines trace) in
        (* a scenario trace ends quiescent, so the fed (pre-finish)
           engine state is recoverable; re-feed to capture it *)
        let engine2 =
          Engine.create ~emit:(fun _ -> ()) ()
        in
        List.iter (Engine.feed_line engine2) (trace_lines trace);
        check_bool "quiescent at end of a completed trace" true
          (Engine.quiescent engine2);
        match Engine.checkpoint engine2 with
        | None -> Alcotest.fail "no checkpoint at a quiescent point"
        | Some ck -> (
            ignore engine;
            match Checkpoint.of_json (Checkpoint.json ck) with
            | Error e -> Alcotest.fail e
            | Ok ck' ->
                check_str "byte-identical rendering"
                  (J.to_string (Checkpoint.json ck))
                  (J.to_string (Checkpoint.json ck'))));
    tc "restore + remaining lines replays the full verdict stream" (fun () ->
        let trace, _ = workload 5 in
        let lines = trace_lines trace in
        let _, full, _ = serve lines in
        (* feed line by line, remembering the last mid-stream checkpoint *)
        let emitted = ref [] in
        let engine =
          Engine.create ~emit:(fun v -> emitted := v :: !emitted) ()
        in
        let best = ref None in
        List.iter
          (fun l ->
            Engine.feed_line engine l;
            match Engine.checkpoint engine with
            | Some ck when Checkpoint.verdicts ck > 0 ->
                best := Some (ck, List.rev !emitted)
            | _ -> ())
          lines;
        match !best with
        | None -> Alcotest.fail "no mid-stream quiescent checkpoint"
        | Some (ck, prefix) ->
            let resumed = ref [] in
            let engine' =
              Engine.restore ~emit:(fun v -> resumed := v :: !resumed) ck
            in
            List.iteri
              (fun i l ->
                if i >= ck.Checkpoint.cursor then Engine.feed_line engine' l)
              lines;
            Engine.finish engine';
            let replay = prefix @ List.rev !resumed in
            check_int "same verdict count" (List.length full)
              (List.length replay);
            check_bool "byte-identical verdicts" true
              (List.for_all2 Verdict.equal full replay));
    tc "negative counts and repeated objects are load errors" (fun () ->
        let trace, _ = workload 5 in
        let engine = Engine.create ~emit:ignore () in
        List.iter (Engine.feed_line engine) (trace_lines trace);
        let fields =
          match Checkpoint.json (Option.get (Engine.checkpoint engine)) with
          | J.Obj fields -> fields
          | _ -> Alcotest.fail "a checkpoint is an object"
        in
        let set k v =
          List.map (fun (k', v') -> (k', if k' = k then v else v'))
        in
        let objects =
          match List.assoc "objects" fields with
          | J.List (_ :: _ as os) -> os
          | _ -> Alcotest.fail "the checkpoint lists its objects"
        in
        let load fields = Checkpoint.of_json (J.Obj fields) in
        check_bool "the checkpoint loads" true (Result.is_ok (load fields));
        List.iter
          (fun (what, fields) ->
            check_bool what true (Result.is_error (load fields)))
          [
            ("a negative cursor", set "cursor" (J.Int (-1)) fields);
            ("a negative counter", set "ok" (J.Int (-3)) fields);
            ("a time mark below -1", set "last_time" (J.Int (-2)) fields);
            ( "a negative segment",
              set "objects"
                (J.List
                   (List.map
                      (function
                        | J.Obj o -> J.Obj (set "segment" (J.Int (-7)) o)
                        | o -> o)
                      objects))
                fields );
            ( "a repeated object",
              set "objects" (J.List (objects @ [ List.hd objects ])) fields );
          ];
        (* one item of an object's values that is not a value refuses the
           checkpoint, naming the field *)
        let values = J.List [ J.Obj [ ("type", J.Str "bot") ]; J.Int 5 ] in
        check_bool "a malformed value" true
          (Test_obs.refuses_naming "values"
             (load
                (set "objects"
                   (J.List
                      (List.map
                         (function
                           | J.Obj o -> J.Obj (set "values" values o) | o -> o)
                         objects))
                   fields)));
        (* a time mark of -1 is a fresh engine's *)
        check_bool "a fresh engine's checkpoint loads" true
          (Result.is_ok
             (Checkpoint.of_json
                (Checkpoint.json
                   (Option.get
                      (Engine.checkpoint (Engine.create ~emit:ignore ())))))));
    tc "truncate_jsonl keeps complete lines and rejects short logs"
      (fun () ->
        let path = Filename.temp_file "serve_test" ".jsonl" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Out_channel.with_open_bin path (fun oc ->
                output_string oc "{\"a\":1}\n{\"a\":2}\n{\"a\":3}\n{\"a\":4");
            (match Checkpoint.truncate_jsonl ~path ~keep:2 with
            | Error e -> Alcotest.fail e
            | Ok () ->
                check_str "two complete lines survive" "{\"a\":1}\n{\"a\":2}\n"
                  (In_channel.with_open_bin path In_channel.input_all));
            match Checkpoint.truncate_jsonl ~path ~keep:5 with
            | Error _ -> ()
            | Ok () -> Alcotest.fail "short log must be rejected"));
    tc "mutated checkpoints and corpus files load to Ok or Error" (fun () ->
        let rand = Random.State.make [| 20261018 |] in
        let read path = In_channel.with_open_bin path In_channel.input_all in
        let corpora =
          Sys.readdir "../corpus" |> Array.to_list
          |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
          |> List.map (fun f -> read (Filename.concat "../corpus" f))
          |> Array.of_list
        in
        check_bool "the committed corpus loads" true
          (Result.is_ok (Check.Corpus.load "../corpus"));
        (* each text goes to a new file, removed after the load: ext4
           flushes a file that was truncated and rewritten when it is
           closed, about 40 ms a rewrite on some hosts *)
        let with_file text f =
          let path = Filename.temp_file "serve_test" ".jsonl" in
          Fun.protect
            ~finally:(fun () -> Sys.remove path)
            (fun () ->
              Out_channel.with_open_gen [ Open_wronly; Open_binary ] 0o600
                path (fun oc -> output_string oc text);
              f path)
        in
        let trace, _ = workload 2 in
        let engine = Engine.create ~emit:ignore () in
        List.iter (Engine.feed_line engine) (trace_lines trace);
        let checkpoint =
          with_file "" (fun path ->
              Checkpoint.save path (Option.get (Engine.checkpoint engine));
              check_bool "the checkpoint loads" true
                (Result.is_ok (Checkpoint.load path));
              read path)
        in
        let no_raise what f text =
          match f text with
          | () -> ()
          | exception e ->
              Alcotest.failf "%s raised %s on %S" what (Printexc.to_string e)
                text
        in
        let mutate s =
          let s = Test_obs.mutate rand s in
          if Random.State.bool rand then s else Test_obs.mutate rand s
        in
        for _ = 1 to 2_000 do
          no_raise "Corpus.load"
            (fun text ->
              with_file text (fun path ->
                  match Check.Corpus.load path with Ok _ | Error _ -> ()))
            (mutate (Test_obs.pick rand corpora));
          no_raise "Checkpoint.load"
            (fun text ->
              with_file text (fun path ->
                  match Checkpoint.load path with
                  | Ok ck when not (well_formed ck) ->
                      Alcotest.failf "Checkpoint.load accepted %S" text
                  | Ok _ | Error _ -> ()))
            (mutate checkpoint)
        done;
        (* the abd, alg2 and mwabd trace streams into the engine and
           its reference, an ABD flight-recorder stream into the event
           parsers, and a fault plan and a chaos config into their
           loaders *)
        let stream trace = String.concat "\n" (trace_lines trace) in
        let streams =
          [|
            stream (fst (workload 3));
            stream (fst (workload 1));
            stream
              (Core.Abd_runs.execute_config
                 {
                   Config.default with
                   proto = Mw;
                   n = 3;
                   writers = [ 0; 1 ];
                   writes_each = 2;
                   readers = [ 2 ];
                   reads_each = 3;
                   seed = 7L;
                 })
                .Core.Abd_runs.trace;
          |]
        in
        (* the last 200 events, as a corpus post-mortem keeps *)
        let tracer = Obs.Tracer.create ~capacity:200 () in
        ignore
          (Core.Abd_runs.execute_config ~tracer
             { Test_abd.shape with seed = 7L });
        let events =
          String.concat "\n"
            (List.map
               (fun ev -> J.to_string (Obs.Tracer.event_json ev))
               (Obs.Tracer.events tracer))
        in
        let config = Core.Chaos.gen_config ~seed:20260805L 5 in
        let plan = J.to_string (Core.Faults.plan_json config.Config.faults)
        and config = J.to_string (Config.json config) in
        let serve_stream text =
          let lines = String.split_on_char '\n' text in
          let engine = Engine.create ~emit:ignore () in
          List.iter (Engine.feed_line engine) lines;
          Engine.finish engine;
          ignore (Reference.run lines)
        in
        let parse_events text =
          List.iter
            (fun line ->
              match J.of_string line with
              | Ok j ->
                  ignore (Obs.Tracer.validate_event_json j);
                  ignore (Obs.Tracer.event_of_json j)
              | Error _ -> ())
            (String.split_on_char '\n' text)
        in
        let load of_json text =
          match J.of_string text with
          | Ok j -> ignore (of_json j)
          | Error _ -> ()
        in
        for i = 1 to 200 do
          no_raise "Engine.feed_line or Reference.run" serve_stream
            (mutate streams.(i mod 3));
          no_raise "the event parsers" parse_events (mutate events);
          no_raise "Faults.plan_of_json"
            (load Core.Faults.plan_of_json)
            (mutate plan);
          no_raise "Runs.Config.of_json" (load Config.of_json)
            (mutate config)
        done);
  ]

(* ---------- allocation ceilings ---------------------------------------- *)

(* On OCaml 5.1.1: 25.7 minor words per incremental state on the cost
   ledger's decide histories (34.7 while an [Ipset] probe returned a
   tuple), and per event for the engine 266.0 on the recorded ABD,
   Algorithm 2 and Algorithm 4 traces of [workload], whose segments are
   few and long, and 161.7 on [multi_object_stream], whose segments are
   short.  A checker per segment cost that stream 235.9, so its ceiling
   sits below that rather than at 1.5 times the figure. *)
let alloc_tests =
  [
    tc "Increment allocates at most 39 words per state" (fun () ->
        let hs = Alloc.decide_histories () in
        Alloc.at_most "Increment per state" 39.
          (Alloc.words_per ~counter:"linchk.inc.states" (fun metrics ->
               List.iter
                 (fun h ->
                   ignore (feed_increment ~metrics ~entry:[ spec.Gen.init ] h))
                 hs)));
    tc "Engine.feed_line allocates at most 400 words per event" (fun () ->
        let traces =
          List.init 9 (fun i -> trace_lines (fst (workload (i + 1))))
        in
        Alloc.at_most "feed_line per event" 400.
          (Alloc.words_per ~counter:"serve.events" (fun metrics ->
               List.iter
                 (fun lines ->
                   let engine = Engine.create ~metrics ~emit:ignore () in
                   List.iter (Engine.feed_line engine) lines;
                   Engine.finish engine)
                 traces)));
    tc "Engine.feed_line allocates at most 210 words per event on short segments"
      (fun () ->
        let lines = multi_object_stream ~seed:3 ~per_object:100 in
        Alloc.at_most "feed_line per event on short segments" 210.
          (Alloc.words_per ~counter:"serve.events" (fun metrics ->
               let engine = Engine.create ~metrics ~emit:ignore () in
               List.iter (Engine.feed_line engine) lines;
               Engine.finish engine)));
  ]

let suite =
  [
    ("serve:increment", increment_tests);
    ("serve:reader", reader_tests);
    ("serve:engine", engine_tests);
    ("serve:quarantine", quarantine_tests);
    ("serve:degradation", degradation_tests);
    ("serve:checkpoint", checkpoint_tests);
    ("serve:alloc", alloc_tests);
  ]
