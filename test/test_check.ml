(* The chaos loop end-to-end: clean code is quiet, an injected quorum
   bug is caught, shrunk to a fixpoint, stored, and replays verbatim. *)

module Config = Msgpass.Runs.Config
module Monitor = Check.Monitor
module Shrink = Check.Shrink
module Corpus = Check.Corpus
module Chaos = Check.Chaos

let tc name f = Alcotest.test_case name `Quick f
let tcs name f = Alcotest.test_case name `Slow f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let json_str j = Obs.Json.to_string j

(* [j] with the value of its key [k] replaced by [v] *)
let set k v = function
  | Obs.Json.Obj fields ->
      let set (k', v') = (k', if k' = k then v else v') in
      Obs.Json.Obj (List.map set fields)
  | j -> j

(* one monitor alone, audited on the same kind of run and private
   registry that [Monitor.run_config] gives the standard list *)
let check_one (m : Monitor.t) config =
  let metrics = Obs.Metrics.create () in
  m.check ~config ~run:(Msgpass.Runs.execute_config ~metrics config) ~metrics

let monitor_tests =
  [
    tc "a benign default config passes every monitor" (fun () ->
        check_bool "no violation" true
          (Monitor.run_config Config.default = None));
    tc "the quorum override trips quorum-sanity" (fun () ->
        let c = { Config.default with Config.quorum = Some 2 } in
        match check_one Monitor.quorum_sanity c with
        | Some v -> check_str "monitor" "quorum-sanity" v.Monitor.monitor
        | None -> Alcotest.fail "quorum-sanity did not fire");
    tc "an impossible step budget trips termination/budget" (fun () ->
        let c = { Config.default with Config.max_steps = Some 5 } in
        match check_one Monitor.termination c with
        | Some v -> check_str "monitor" "termination/budget" v.Monitor.monitor
        | None -> Alcotest.fail "termination did not fire");
    tc "violations round-trip through JSON" (fun () ->
        let v = { Monitor.monitor = "linearizability"; detail = "d" } in
        match Monitor.violation_of_json (Monitor.violation_json v) with
        | Ok v' -> check_bool "equal" true (v = v')
        | Error e -> Alcotest.fail e);
    tc "configs round-trip through JSON" (fun () ->
        let c = Chaos.gen_config ~seed:99L 3 in
        (match Config.of_json (Config.json c) with
        | Ok c' ->
            check_str "same rendering" (json_str (Config.json c))
              (json_str (Config.json c'))
        | Error e -> Alcotest.fail e);
        (* one malformed client refuses the config, naming the field,
           rather than leaving that client out *)
        List.iter
          (fun (k, v) ->
            check_bool k true
              (Test_obs.refuses_naming k
                 (Config.of_json (set k v (Config.json Config.default)))))
          Obs.Json.
            [
              ("writers", List [ Int 0; Str "3" ]);
              ("readers", List [ Int 1; Str "2" ]);
            ]);
    tc "recovery knobs round-trip; pre-recovery JSON gets defaults" (fun () ->
        let c =
          {
            Config.default with
            Config.persist = `Never;
            unsafe_recovery = true;
            faults =
              {
                Simkit.Faults.none with
                Simkit.Faults.crash_at = [ (100, 3) ];
                recover_at = [ (200, 3) ];
              };
          }
        in
        (match Config.of_json (Config.json c) with
        | Ok c' ->
            check_str "same rendering" (json_str (Config.json c))
              (json_str (Config.json c'))
        | Error e -> Alcotest.fail e);
        (* a config serialized before the crash-recovery model has no
           persist / unsafe_recovery fields: it must decode to the safe
           defaults, keeping the committed corpus replayable *)
        let stripped =
          match Config.json Config.default with
          | Obs.Json.Obj fs ->
              Obs.Json.Obj
                (List.filter
                   (fun (k, _) -> k <> "persist" && k <> "unsafe_recovery")
                   fs)
          | _ -> assert false
        in
        match Config.of_json stripped with
        | Ok c' ->
            check_bool "safe defaults" true
              (c'.Config.persist = `Every && not c'.Config.unsafe_recovery)
        | Error e -> Alcotest.fail e);
    tc "unsafe lossy recovery trips recovery-sanity" (fun () ->
        let c =
          {
            Config.default with
            Config.persist = `Never;
            unsafe_recovery = true;
            faults =
              {
                Simkit.Faults.none with
                Simkit.Faults.crash_at = [ (80, 3) ];
                recover_at = [ (160, 3) ];
              };
          }
        in
        match check_one Monitor.recovery_sanity c with
        | Some v -> check_str "monitor" "recovery-sanity" v.Monitor.monitor
        | None -> Alcotest.fail "recovery-sanity did not fire");
    tc "the same schedule with safe recovery passes every monitor" (fun () ->
        let c =
          {
            Config.default with
            Config.persist = `Never;
            faults =
              {
                Simkit.Faults.none with
                Simkit.Faults.crash_at = [ (80, 3) ];
                recover_at = [ (160, 3) ];
              };
          }
        in
        check_bool "no violation" true (Monitor.run_config c = None));
  ]

(* an injected-bug config that fails fast: the shrink tests below
   minimize it, so keep the starting point small but not minimal *)
let buggy =
  {
    Config.default with
    Config.writes_each = 2;
    reads_each = 2;
    quorum = Some 2;
    faults = { Simkit.Faults.none with Simkit.Faults.drop = 0.05 };
  }

let buggy_violation () =
  match Monitor.run_config buggy with
  | Some v -> v
  | None -> Alcotest.fail "injected bug did not trip a monitor"

let shrink_tests =
  [
    tc "candidates are strictly simpler and valid" (fun () ->
        let cands = Shrink.candidates buggy in
        check_bool "some candidates" true (cands <> []);
        List.iter Config.validate cands;
        check_bool "drop ladder descends" true
          (List.exists
             (fun c -> c.Config.faults.Simkit.Faults.drop = 0.02)
             cands));
    tcs "minimize reaches a fixpoint and keeps the monitor" (fun () ->
        let v = buggy_violation () in
        let out = Shrink.minimize ~violation:v buggy in
        check_bool "not exhausted" false out.Shrink.exhausted;
        check_str "same monitor" v.Monitor.monitor
          out.Shrink.violation.Monitor.monitor;
        check_bool "made progress" true (out.Shrink.steps > 0);
        check_bool "drop shrunk to 0" true
          (out.Shrink.config.Config.faults.Simkit.Faults.drop = 0.);
        check_int "writes shrunk" 1 out.Shrink.config.Config.writes_each;
        (* a fixpoint: minimizing the minimum accepts nothing *)
        let again =
          Shrink.minimize ~violation:out.Shrink.violation out.Shrink.config
        in
        check_int "fixpoint" 0 again.Shrink.steps;
        check_str "fixpoint config unchanged"
          (json_str (Config.json out.Shrink.config))
          (json_str (Config.json again.Shrink.config)));
    tcs "minimize is deterministic" (fun () ->
        let v = buggy_violation () in
        let a = Shrink.minimize ~violation:v buggy in
        let b = Shrink.minimize ~violation:v buggy in
        check_str "same minimal config"
          (json_str (Config.json a.Shrink.config))
          (json_str (Config.json b.Shrink.config));
        check_int "same attempts" a.Shrink.attempts b.Shrink.attempts);
  ]

let corpus_tests =
  [
    tcs "entries replay to the identical violation" (fun () ->
        let v = buggy_violation () in
        let out = Shrink.minimize ~violation:v buggy in
        let entry =
          {
            Corpus.config = out.Shrink.config;
            violation = out.Shrink.violation;
            original = Some buggy;
            shrink_attempts = out.Shrink.attempts;
            postmortem = [];
          }
        in
        (match Corpus.replay entry with
        | Corpus.Reproduced -> ()
        | Corpus.Changed v' ->
            Alcotest.fail ("violation changed: " ^ v'.Monitor.detail)
        | Corpus.Fixed -> Alcotest.fail "violation vanished on replay");
        (* and byte-for-byte through the JSONL file format *)
        let path = Filename.temp_file "corpus" ".jsonl" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Corpus.save path [ entry ];
            Corpus.append path entry;
            match Corpus.load path with
            | Ok [ e1; e2 ] ->
                check_str "line 1" (json_str (Corpus.entry_json entry))
                  (json_str (Corpus.entry_json e1));
                check_str "line 2" (json_str (Corpus.entry_json entry))
                  (json_str (Corpus.entry_json e2))
            | Ok es ->
                Alcotest.fail
                  (Printf.sprintf "expected 2 entries, got %d" (List.length es))
            | Error e -> Alcotest.fail e));
    tc "a fixed bug is reported as drift, not success" (fun () ->
        (* same config minus the bug: the stored violation must not
           reproduce any more *)
        let entry =
          {
            Corpus.config = { buggy with Config.quorum = None };
            violation = { Monitor.monitor = "quorum-sanity"; detail = "old" };
            original = None;
            shrink_attempts = 0;
            postmortem = [];
          }
        in
        check_bool "fixed" true (Corpus.replay entry = Corpus.Fixed));
    tc "a malformed list item refuses the entry, naming its field" (fun () ->
        let module J = Obs.Json in
        let load j =
          let path = Filename.temp_file "corpus" ".jsonl" in
          Fun.protect
            ~finally:(fun () -> Sys.remove path)
            (fun () ->
              Obs.Export.to_file path [ j ];
              Corpus.load path)
        in
        let entry =
          Corpus.entry_json
            {
              Corpus.config = Config.default;
              violation = { Monitor.monitor = "m"; detail = "d" };
              original = None;
              shrink_attempts = 0;
              postmortem = [];
            }
        in
        let tracer = Obs.Tracer.create () in
        ignore (Obs.Tracer.emit tracer ~sim:0 ~cat:"net" "send");
        let event =
          Obs.Tracer.event_json (List.hd (Obs.Tracer.events tracer))
        in
        let with_postmortem evs =
          match entry with
          | J.Obj fields -> J.Obj (fields @ [ ("postmortem", J.List evs) ])
          | j -> j
        in
        let with_config ?(k = "config") f =
          set k (f (Config.json Config.default)) entry
        in
        let string_crash_step =
          set "faults"
            (set "crash_at"
               (J.List [ J.Obj [ ("step", J.Str "150"); ("node", J.Int 3) ] ])
               (Simkit.Faults.plan_json Simkit.Faults.none))
        in
        check_bool "the entry loads" true
          (Result.is_ok (load (with_postmortem [ event ])));
        List.iter
          (fun (what, k, j) ->
            check_bool what true (Test_obs.refuses_naming k (load j)))
          [
            ( "a post-mortem item that is not a trace event",
              "postmortem",
              with_postmortem [ event; J.Obj [ ("kind", J.Str "trace_event") ] ]
            );
            ( "a string reader",
              "readers",
              with_config (set "readers" (J.List [ J.Int 1; J.Str "2" ])) );
            ("a string crash step", "crash_at", with_config string_crash_step);
            ( "a string crash step in the pre-shrink config",
              "original",
              with_config ~k:"original" string_crash_step );
          ]);
  ]

let chaos_tests =
  [
    tcs "a clean sweep reports zero violations" (fun () ->
        let r = Chaos.search ~seed:42L ~budget:40 () in
        check_int "violations" 0 (List.length r.Chaos.findings));
    tcs "the report is identical at -j 1 and -j 2" (fun () ->
        let r1 = Chaos.search ~jobs:1 ~seed:42L ~budget:24 () in
        let r2 = Chaos.search ~jobs:2 ~seed:42L ~budget:24 () in
        check_str "byte-identical"
          (json_str (Chaos.report_json r1))
          (json_str (Chaos.report_json r2)));
    tcs "the injected quorum bug is found and shrunk" (fun () ->
        let r =
          Chaos.search ~inject:Chaos.Quorum_too_small ~seed:42L ~budget:6 ()
        in
        check_bool "found" true (r.Chaos.findings <> []);
        List.iter
          (fun f ->
            check_str "monitor" "quorum-sanity"
              f.Chaos.first.Monitor.monitor;
            let m = f.Chaos.shrunk.Shrink.config in
            check_bool "kept the bug" true (m.Config.quorum <> None);
            check_bool "at most one crash" true
              (List.length m.Config.faults.Simkit.Faults.crash_at <= 1);
            check_bool "drop shrunk away" true
              (m.Config.faults.Simkit.Faults.drop = 0.))
          r.Chaos.findings;
        (* every finding replays from its corpus entry *)
        List.iter
          (fun e ->
            check_bool "replays" true (Corpus.replay e = Corpus.Reproduced))
          (Chaos.to_entries r));
    tcs "the injected unsafe-recovery bug is found and shrunk" (fun () ->
        let r =
          Chaos.search ~inject:Chaos.Unsafe_recovery ~seed:42L ~budget:6 ()
        in
        check_bool "found" true (r.Chaos.findings <> []);
        List.iter
          (fun f ->
            (* amnesia is caught red-handed (recovery-sanity) or via the
               stale read it causes (linearizability) *)
            check_bool "monitor" true
              (List.mem f.Chaos.first.Monitor.monitor
                 [ "recovery-sanity"; "linearizability" ]);
            let m = f.Chaos.shrunk.Shrink.config in
            check_bool "kept the bug" true m.Config.unsafe_recovery;
            check_bool "at most one crash+recover pair" true
              (List.length m.Config.faults.Simkit.Faults.crash_at <= 1
              && List.length m.Config.faults.Simkit.Faults.recover_at <= 1);
            check_bool "link faults shrunk away" true
              (m.Config.faults.Simkit.Faults.drop = 0.
              && m.Config.faults.Simkit.Faults.duplicate = 0.))
          r.Chaos.findings;
        List.iter
          (fun e ->
            check_bool "replays" true (Corpus.replay e = Corpus.Reproduced))
          (Chaos.to_entries r));
  ]

let suite =
  [
    ("check.monitor", monitor_tests);
    ("check.shrink", shrink_tests);
    ("check.corpus", corpus_tests);
    ("check.chaos", chaos_tests);
  ]
