(* The causal flight recorder: ring semantics, canonical JSON, causal
   parents on a real ABD run, exporter validity, determinism across
   re-executions and [-j], and the violation post-mortem pipeline. *)

module Tracer = Obs.Tracer
module Runs = Msgpass.Runs
module Config = Msgpass.Runs.Config
module Monitor = Check.Monitor

let tc name f = Alcotest.test_case name `Quick f
let tcs name f = Alcotest.test_case name `Slow f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let emit_n t n =
  for i = 0 to n - 1 do
    ignore (Tracer.emit t ~sim:i ~cat:"test" (Printf.sprintf "e%d" i))
  done

let ring_tests =
  [
    tc "ring keeps the last K events after wrapping" (fun () ->
        let t = Tracer.create ~capacity:8 () in
        emit_n t 20;
        check_int "emitted" 20 (Tracer.emitted t);
        check_int "capacity" 8 (Tracer.capacity t);
        let evs = Tracer.events t in
        check_int "retained" 8 (List.length evs);
        Alcotest.(check (list int))
          "oldest-first seqs 12..19"
          [ 12; 13; 14; 15; 16; 17; 18; 19 ]
          (List.map (fun (e : Tracer.event) -> e.Tracer.seq) evs));
    tc "clear resets seq, ctx and retention" (fun () ->
        let t = Tracer.create ~capacity:4 () in
        emit_n t 6;
        Tracer.set_ctx t 5;
        Tracer.clear t;
        check_int "emitted" 0 (Tracer.emitted t);
        check_int "ctx" (-1) (Tracer.ctx t);
        check_bool "empty" true (Tracer.events t = []);
        check_int "fresh seq" 0 (Tracer.emit t ~sim:0 ~cat:"test" "e"));
    tc "disarmed tracer records nothing and allocQ-free emit returns -1"
      (fun () ->
        let t = Tracer.create ~capacity:8 ~armed:false () in
        check_int "emit" (-1) (Tracer.emit t ~sim:0 ~cat:"test" "e");
        Tracer.set_ctx t 3;
        check_int "ctx unchanged" (-1) (Tracer.ctx t);
        check_int "emitted" 0 (Tracer.emitted t);
        check_bool "no events" true (Tracer.events t = []));
    tc "the null tracer can never be armed" (fun () ->
        check_bool "disarmed" false (Tracer.armed Tracer.null);
        check_int "emit" (-1) (Tracer.emit Tracer.null ~sim:0 ~cat:"t" "e");
        match Tracer.set_armed Tracer.null true with
        | () -> Alcotest.fail "arming null should raise"
        | exception Invalid_argument _ -> ());
    tc "emit inherits the ambient ctx as parent" (fun () ->
        let t = Tracer.create () in
        let a = Tracer.emit t ~sim:0 ~cat:"test" "a" in
        Tracer.set_ctx t a;
        let b = Tracer.emit t ~sim:1 ~cat:"test" "b" in
        let c = Tracer.emit t ~parent:(-1) ~sim:2 ~cat:"test" "c" in
        let find s =
          List.find (fun (e : Tracer.event) -> e.Tracer.seq = s)
            (Tracer.events t)
        in
        check_int "b's parent is a" a (find b).Tracer.parent;
        check_int "explicit parent wins" (-1) (find c).Tracer.parent);
  ]

let json_tests =
  [
    tc "events round-trip through canonical JSON" (fun () ->
        let t = Tracer.create () in
        let a = Tracer.emit t ~track:3 ~sim:7 ~cat:"net" "send"
            ~args:[ ("dst", Obs.Json.Int 101); ("note", Obs.Json.Str "x") ]
        in
        Tracer.set_ctx t a;
        ignore (Tracer.emit t ~track:101 ~sim:9 ~cat:"net" "deliver");
        List.iter
          (fun ev ->
            let j = Tracer.event_json ev in
            (match Tracer.validate_event_json j with
            | Ok () -> ()
            | Error e -> Alcotest.fail e);
            match Tracer.event_of_json j with
            | Error e -> Alcotest.fail e
            | Ok ev' -> check_bool "round-trip" true (ev = ev'))
          (Tracer.events t));
    tc "canonical JSON omits wall_ms" (fun () ->
        let t = Tracer.create () in
        ignore (Tracer.emit t ~sim:0 ~cat:"test" "e");
        let ev = List.hd (Tracer.events t) in
        check_bool "no wall_ms" true
          (Obs.Json.member "wall_ms" (Tracer.event_json ev) = None));
    tc "validate_event_json rejects corrupt records" (fun () ->
        let bad =
          [
            Obs.Json.Obj [ ("kind", Obs.Json.Str "trace_event") ];
            Obs.Json.Obj
              [
                ("kind", Obs.Json.Str "not_a_trace_event");
                ("seq", Obs.Json.Int 0);
              ];
            Obs.Json.Str "nope";
          ]
        in
        List.iter
          (fun j ->
            match Tracer.validate_event_json j with
            | Ok () -> Alcotest.fail "accepted a corrupt record"
            | Error _ -> ())
          bad);
    tc "write_line_verified streams verified records" (fun () ->
        let path = Filename.temp_file "tracer" ".jsonl" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let t = Tracer.create () in
            emit_n t 5;
            let oc = open_out path in
            Fun.protect
              ~finally:(fun () -> close_out oc)
              (fun () ->
                List.iter
                  (fun ev ->
                    match
                      Obs.Export.write_line_verified oc (Tracer.event_json ev)
                    with
                    | Ok () -> ()
                    | Error e -> Alcotest.fail e)
                  (Tracer.events t));
            match Obs.Export.parse_file path with
            | Ok lines -> check_int "5 lines" 5 (List.length lines)
            | Error e -> Alcotest.fail e));
  ]

(* a seeded single-writer ABD run under an armed recorder *)
let abd_events seed =
  let tracer = Tracer.create () in
  ignore (Runs.execute_config ~tracer { Test_abd.shape with seed });
  Tracer.events tracer

let find_seq evs s =
  List.find_opt (fun (e : Tracer.event) -> e.Tracer.seq = s) evs

let causal_tests =
  [
    tcs "ABD run: every deliver/drop chains to its send" (fun () ->
        let evs = abd_events 5L in
        let checked = ref 0 in
        List.iter
          (fun (e : Tracer.event) ->
            if
              e.Tracer.cat = "net"
              && List.mem e.Tracer.name [ "deliver"; "drop"; "dead_letter" ]
            then
              match find_seq evs e.Tracer.parent with
              | Some p ->
                  incr checked;
                  check_str "parent is a send" "send" p.Tracer.name
              | None -> () (* parent fell off the ring: not auditable *))
          evs;
        check_bool "audited some deliveries" true (!checked > 50));
    tcs "ABD run: op phases chain respond->invoke and round->invoke"
      (fun () ->
        let evs = abd_events 6L in
        let audited = ref 0 in
        List.iter
          (fun (e : Tracer.event) ->
            if e.Tracer.cat = "reg" then
              match e.Tracer.name with
              | "respond" | "round" -> (
                  match find_seq evs e.Tracer.parent with
                  | Some p ->
                      incr audited;
                      check_str "parent is the invoke" "invoke" p.Tracer.name
                  | None -> ())
              | _ -> ())
          evs;
        check_bool "audited op phases" true (!audited > 5));
    tcs "ABD run: sends inside a round chain to that round" (fun () ->
        let evs = abd_events 7L in
        let audited = ref 0 in
        List.iter
          (fun (e : Tracer.event) ->
            if e.Tracer.cat = "net" && e.Tracer.name = "send" then
              match find_seq evs e.Tracer.parent with
              | Some p ->
                  if p.Tracer.cat = "reg" then begin
                    incr audited;
                    check_str "client send belongs to a round" "round"
                      p.Tracer.name
                  end
              | None -> ())
          evs;
        check_bool "audited round sends" true (!audited > 5));
    tcs "event streams are byte-identical across re-executions" (fun () ->
        let render evs =
          String.concat "\n"
            (List.map
               (fun ev -> Obs.Json.to_string (Tracer.event_json ev))
               evs)
        in
        check_str "same stream" (render (abd_events 5L))
          (render (abd_events 5L)));
  ]

let exporter_tests =
  [
    tcs "the Perfetto export of an ABD run validates" (fun () ->
        let evs = abd_events 5L in
        let doc = Tracer.perfetto_json evs in
        match Tracer.validate_perfetto doc with
        | Error e -> Alcotest.fail e
        | Ok n -> check_bool "non-trivial" true (n > List.length evs));
    tcs "Perfetto: thread metadata, flow pairs and counter samples"
      (fun () ->
        (* hand-built window exercising every record family *)
        let t = Tracer.create () in
        let s = Tracer.emit t ~track:0 ~sim:1 ~cat:"net" "send" in
        ignore (Tracer.emit t ~track:101 ~parent:s ~sim:2 ~cat:"net" "deliver");
        ignore
          (Tracer.emit t ~sim:3 ~cat:"check" "linchk.progress"
             ~args:[ ("states", Obs.Json.Int 42) ]);
        let doc = Tracer.perfetto_json (Tracer.events t) in
        (match Tracer.validate_perfetto doc with
        | Error e -> Alcotest.fail e
        | Ok _ -> ());
        let tes =
          match Obs.Json.member "traceEvents" doc with
          | Some (Obs.Json.List l) -> l
          | _ -> Alcotest.fail "no traceEvents"
        in
        let phs ph =
          List.length
            (List.filter
               (fun te ->
                 Option.bind (Obs.Json.member "ph" te) Obs.Json.to_string_opt
                 = Some ph)
               tes)
        in
        check_bool "thread metas" true (phs "M" >= 3);
        check_int "flow start" 1 (phs "s");
        check_int "flow finish" 1 (phs "f");
        check_int "counter sample" 1 (phs "C"));
    tcs "validate_perfetto rejects a broken document" (fun () ->
        let module J = Obs.Json in
        let bad =
          J.Obj [ ("traceEvents", J.List [ J.Obj [ ("name", J.Int 3) ] ]) ]
        in
        (match Tracer.validate_perfetto bad with
        | Ok _ -> Alcotest.fail "accepted a broken document"
        | Error _ -> ());
        (* each missing or mistyped key is named; the first event is a
           good one, so a refusal comes from the event under test *)
        let doc ev =
          let meta =
            J.Obj [ ("ph", J.Str "M"); ("name", J.Str "m"); ("pid", J.Int 0) ]
          in
          J.Obj [ ("traceEvents", J.List [ meta; J.Obj ev ]) ]
        in
        let base = [ ("name", J.Str "e"); ("pid", J.Int 0) ] in
        List.iter
          (fun (k, d) ->
            check_bool k true
              (Test_obs.refuses_naming k (Tracer.validate_perfetto d)))
          [
            ("traceEvents", J.Obj [ ("traceEvents", J.Int 1) ]);
            ("ph", doc base);
            ("name", doc [ ("ph", J.Str "M"); ("pid", J.Int 0) ]);
            ("pid", doc [ ("ph", J.Str "M"); ("name", J.Str "e") ]);
            ("ts", doc (("ph", J.Str "X") :: base));
            ("id", doc (("ph", J.Str "s") :: ("ts", J.Int 1) :: base));
          ];
        check_bool "an unknown ph" true
          (Result.is_error
             (Tracer.validate_perfetto (doc (("ph", J.Str "Q") :: base)))));
    tc "DOT ancestry contains the causal cone, highlighted" (fun () ->
        let t = Tracer.create () in
        let a = Tracer.emit t ~sim:0 ~cat:"reg" "invoke" in
        let b = Tracer.emit t ~parent:a ~sim:1 ~cat:"reg" "round" in
        let c = Tracer.emit t ~parent:b ~sim:2 ~cat:"net" "send" in
        ignore (Tracer.emit t ~parent:(-1) ~sim:3 ~cat:"sched" "spawn");
        let dot = Tracer.dot_of_ancestry (Tracer.events t) ~seq:c in
        let has needle = Test_obs.contains dot needle in
        check_bool "digraph" true (has "digraph");
        check_bool "root present" true (has (Printf.sprintf "n%d" a));
        check_bool "edge a->b" true
          (has (Printf.sprintf "n%d -> n%d" a b));
        check_bool "unrelated event excluded" false (has "spawn"));
  ]

let quorum_bug_config () =
  { Config.default with Config.quorum = Some 1 }

let postmortem_tests =
  [
    tcs "Monitor.postmortem attaches the last-K events to a violation"
      (fun () ->
        match Monitor.postmortem (quorum_bug_config ()) with
        | None -> Alcotest.fail "quorum bug not caught"
        | Some (v, events) ->
            check_str "monitor" "quorum-sanity" v.Check.Monitor.monitor;
            check_bool "events retained" true (List.length events > 0);
            check_bool "bounded by 200" true (List.length events <= 200));
    tcs "postmortem of a healthy config is None" (fun () ->
        check_bool "no violation" true
          (Monitor.postmortem Config.default = None));
    tcs "chaos --flight: corpus entries carry validated post-mortems, \
         byte-identical across -j"
      (fun () ->
        let seed = 77L and budget = 6 in
        let run jobs =
          Check.Chaos.search ~jobs ~inject:Check.Chaos.Quorum_too_small
            ~flight:true ~seed ~budget ()
        in
        let r1 = run 1 and r2 = run 2 in
        check_bool "found something" true (r1.Check.Chaos.findings <> []);
        List.iter
          (fun (f : Check.Chaos.finding) ->
            check_bool "post-mortem recorded" true
              (f.Check.Chaos.postmortem <> []))
          r1.Check.Chaos.findings;
        (* reports and corpus lines byte-identical across -j *)
        check_str "reports"
          (Obs.Json.to_string (Check.Chaos.report_json r1))
          (Obs.Json.to_string (Check.Chaos.report_json r2));
        let lines r =
          List.map
            (fun e -> Obs.Json.to_string (Check.Corpus.entry_json e))
            (Check.Chaos.to_entries r)
        in
        Alcotest.(check (list string)) "corpus lines" (lines r1) (lines r2);
        (* and the entries round-trip through the corpus file format,
           post-mortems included *)
        let path = Filename.temp_file "corpus" ".jsonl" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Check.Corpus.save path (Check.Chaos.to_entries r1);
            match Check.Corpus.load path with
            | Error e -> Alcotest.fail e
            | Ok entries ->
                Alcotest.(check (list string))
                  "reloaded verbatim" (lines r1)
                  (List.map
                     (fun e ->
                       Obs.Json.to_string (Check.Corpus.entry_json e))
                     entries);
                List.iter
                  (fun (e : Check.Corpus.entry) ->
                    check_bool "post-mortem survived the file" true
                      (e.Check.Corpus.postmortem <> []))
                  entries));
  ]

(* small fixed history for the probe tests *)
let probe_history () =
  let op ?responded ?result ~id ~proc ~kind ~invoked () =
    Core.Op.make ~id ~proc ~obj:"R" ~kind ~invoked ?responded ?result ()
  in
  Core.Hist.of_ops
    [
      op ~id:1 ~proc:1
        ~kind:(Core.Op.Write (Core.Value.Int 1))
        ~invoked:1 ~responded:2 ();
      op ~id:2 ~proc:2 ~kind:Core.Op.Read ~invoked:3 ~responded:4
        ~result:(Core.Value.Int 1) ();
    ]

let probe_tests =
  [
    tc "treecheck emits progress probes on the armed tracer" (fun () ->
        let tracer = Tracer.create () in
        let metrics = Obs.Metrics.create () in
        (* park the node counter just below the probe cadence so the
           first visit of this small tree crosses it deterministically *)
        Obs.Metrics.incr_h ~by:63
          (Obs.Metrics.counter_h metrics "treecheck.nodes");
        let tree = Core.Treecheck.of_prefixes (probe_history ()) in
        check_bool "tree solvable" true
          (Core.Treecheck.write_strong ~metrics ~tracer
             ~init:(Core.Value.Int 0) tree);
        let probes =
          List.filter
            (fun (e : Tracer.event) ->
              e.Tracer.cat = "check"
              && e.Tracer.name = "treecheck.progress")
            (Tracer.events tracer)
        in
        check_bool "probe fired" true (probes <> []);
        let p = List.hd probes in
        check_bool "carries nodes" true
          (List.assoc_opt "nodes" p.Tracer.args = Some (Obs.Json.Int 64));
        check_bool "carries depth" true
          (List.mem_assoc "depth" p.Tracer.args));
    tc "a disarmed tracer suppresses probes entirely" (fun () ->
        let tracer = Tracer.create ~armed:false () in
        let metrics = Obs.Metrics.create () in
        Obs.Metrics.incr_h ~by:63
          (Obs.Metrics.counter_h metrics "treecheck.nodes");
        ignore
          (Core.Treecheck.write_strong ~metrics ~tracer
             ~init:(Core.Value.Int 0)
             (Core.Treecheck.of_prefixes (probe_history ())));
        check_int "nothing recorded" 0 (Tracer.emitted tracer));
  ]

(* ----- a disarmed tracer allocates nothing ------------------------------------- *)

(* Minor words of one steady-state call of [f]. *)
let words f = Alloc.words_per_call ~n:1 f

(* Both sides of each comparison run one closure that differs only in
   the tracer.  The decide pair passes the option itself ([?tracer]),
   built once outside the measured call: comparing [~tracer:t] at a call
   site against no argument would charge the per-call [Some] box to the
   tracer. *)
let alloc_tests =
  [
    tc "decide allocates the same with a disarmed tracer as with none"
      (fun () ->
        let hs = Alloc.decide_histories () in
        let m = Obs.Metrics.create () in
        let init = Core.Value.Int 0 in
        let pass tracer () =
          List.iter
            (fun h ->
              ignore (Core.Lincheck.witness ~metrics:m ?tracer ~init h))
            hs
        in
        let none = None
        and disarmed = Some (Tracer.create ~capacity:256 ~armed:false ()) in
        Alcotest.(check (float 0.))
          "minor words" (words (pass none)) (words (pass disarmed)));
    tc "an ABD run allocates the same with a disarmed tracer as with null"
      (fun () ->
        (* a fresh registry per run: the global one's histograms would
           grow their bucket arrays at run-dependent moments *)
        let run tracer () =
          ignore
            (Runs.execute_config ~metrics:(Obs.Metrics.create ()) ~tracer
               { Test_abd.shape with seed = 9L })
        in
        let null = words (run Tracer.null) in
        Alcotest.(check (float 0.))
          "minor words" null
          (words (run (Tracer.create ~armed:false ())));
        (* the measurement sees tracer work when there is some *)
        check_bool "an armed tracer allocates more" true
          (words (run (Tracer.create ())) > null));
  ]

let suite =
  [
    ("tracer:ring", ring_tests);
    ("tracer:json", json_tests);
    ("tracer:causality", causal_tests);
    ("tracer:exporters", exporter_tests);
    ("tracer:postmortem", postmortem_tests);
    ("tracer:probes", probe_tests);
    ("tracer:alloc", alloc_tests);
  ]
