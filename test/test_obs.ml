(* Obs: metrics semantics, JSON round-trips, and the trace JSONL export. *)

let tc name f = Alcotest.test_case name `Quick f

(* ----- Metrics ------------------------------------------------------------- *)

let test_counter_semantics () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr m "a";
  Obs.Metrics.incr m "a" ~by:4;
  Obs.Metrics.incr m "b";
  Alcotest.(check int) "a accumulated" 5 (Obs.Metrics.counter m "a");
  Alcotest.(check int) "b accumulated" 1 (Obs.Metrics.counter m "b");
  Alcotest.(check int) "unknown counter reads 0" 0 (Obs.Metrics.counter m "c");
  Alcotest.check_raises "negative increment rejected"
    (Invalid_argument "Metrics.incr: counters are monotone (by < 0)") (fun () ->
      Obs.Metrics.incr m "a" ~by:(-1))

let test_histogram_semantics () =
  let m = Obs.Metrics.create () in
  List.iter (fun v -> Obs.Metrics.observe m "h" v) [ 5.; 1.; 3.; 2.; 4. ];
  let snap = Obs.Metrics.snapshot m in
  match List.assoc_opt "h" snap.Obs.Metrics.histograms with
  | None -> Alcotest.fail "histogram missing from snapshot"
  | Some s ->
      Alcotest.(check int) "count" 5 s.Obs.Metrics.count;
      Alcotest.(check (float 1e-9)) "sum" 15. s.Obs.Metrics.sum;
      Alcotest.(check (float 1e-9)) "min" 1. s.Obs.Metrics.min;
      Alcotest.(check (float 1e-9)) "max" 5. s.Obs.Metrics.max;
      Alcotest.(check (float 1e-9)) "mean" 3. s.Obs.Metrics.mean;
      Alcotest.(check (float 1e-9)) "p50" 3. s.Obs.Metrics.p50

let test_delta () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr m "x" ~by:2;
  Obs.Metrics.observe m "h" 10.;
  let before = Obs.Metrics.snapshot m in
  Obs.Metrics.incr m "x" ~by:3;
  Obs.Metrics.incr m "y";
  Obs.Metrics.set_gauge m "g" 7.;
  Obs.Metrics.observe m "h" 20.;
  Obs.Metrics.observe m "h" 40.;
  let after = Obs.Metrics.snapshot m in
  let d = Obs.Metrics.delta ~before ~after in
  let get k =
    match List.assoc_opt k d with
    | Some v -> v
    | None -> Alcotest.failf "delta missing %s" k
  in
  Alcotest.(check (float 1e-9)) "counter increment" 3. (get "x");
  Alcotest.(check (float 1e-9)) "new counter" 1. (get "y");
  Alcotest.(check (float 1e-9)) "gauge at after value" 7. (get "g");
  Alcotest.(check (float 1e-9)) "new histogram samples" 2. (get "h.n");
  Alcotest.(check (float 1e-9)) "mean of new samples" 30. (get "h.mean");
  Alcotest.(check bool) "unchanged counter omitted" true
    (List.assoc_opt "x" d = Some 3. && not (List.mem_assoc "h.count" d))

(* ----- Handles (the allocation-free hot path) ------------------------------ *)

let test_handles_alias_string_api () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter_h m "k" in
  Obs.Metrics.incr_h c;
  Obs.Metrics.incr m "k" ~by:4;
  Obs.Metrics.incr_h c ~by:2;
  Alcotest.(check int) "handle and string hit the same cell" 7
    (Obs.Metrics.counter m "k");
  Alcotest.check_raises "handles keep counters monotone"
    (Invalid_argument "Metrics.incr: counters are monotone (by < 0)") (fun () ->
      Obs.Metrics.incr_h c ~by:(-1));
  let g = Obs.Metrics.gauge_h m "g" in
  Alcotest.(check bool) "resolving a gauge handle does not create the gauge"
    true
    (Obs.Metrics.gauge m "g" = None);
  Obs.Metrics.set_gauge_h g 3.;
  Obs.Metrics.set_gauge m "g" 5.;
  Obs.Metrics.set_gauge_h g 9.;
  Alcotest.(check (option (float 1e-9))) "gauge cell shared" (Some 9.)
    (Obs.Metrics.gauge m "g");
  let h = Obs.Metrics.hist_h m "h" in
  Obs.Metrics.observe_h h 1.;
  Obs.Metrics.observe m "h" 3.;
  match Obs.Metrics.summary m "h" with
  | None -> Alcotest.fail "histogram missing"
  | Some s ->
      Alcotest.(check int) "observations from both paths" 2 s.Obs.Metrics.count;
      Alcotest.(check (float 1e-9)) "sum" 4. s.Obs.Metrics.sum

let test_merge_after_handle_use () =
  let a = Obs.Metrics.create () and b = Obs.Metrics.create () in
  let ca = Obs.Metrics.counter_h a "n" and cb = Obs.Metrics.counter_h b "n" in
  Obs.Metrics.incr_h ca ~by:3;
  Obs.Metrics.incr_h cb ~by:4;
  Obs.Metrics.observe_h (Obs.Metrics.hist_h b "h") 10.;
  Obs.Metrics.merge ~into:a b;
  Alcotest.(check int) "counters add" 7 (Obs.Metrics.counter a "n");
  (match Obs.Metrics.summary a "h" with
  | Some s -> Alcotest.(check int) "hist carried" 1 s.Obs.Metrics.count
  | None -> Alcotest.fail "merged histogram missing");
  (* the handle still points at the live cell after the merge *)
  Obs.Metrics.incr_h ca;
  Alcotest.(check int) "handle live after merge" 8 (Obs.Metrics.counter a "n")

let test_reservoir_growth_and_cap () =
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.hist_h m "h" in
  (* crossing the 16-slot initial reservoir must lose nothing *)
  for i = 1 to 17 do
    Obs.Metrics.observe_h h (float_of_int i)
  done;
  (match Obs.Metrics.summary m "h" with
  | None -> Alcotest.fail "histogram missing"
  | Some s ->
      Alcotest.(check int) "count across growth" 17 s.Obs.Metrics.count;
      Alcotest.(check (float 1e-9)) "sum exact" 153. s.Obs.Metrics.sum;
      Alcotest.(check (float 1e-9)) "max exact" 17. s.Obs.Metrics.max);
  (* beyond reservoir_cap: count/sum/min/max stay exact, quantiles are
     computed over the first [reservoir_cap] retained samples *)
  let m2 = Obs.Metrics.create () in
  let h2 = Obs.Metrics.hist_h m2 "h" in
  for i = 1 to 5000 do
    Obs.Metrics.observe_h h2 (float_of_int i)
  done;
  match Obs.Metrics.summary m2 "h" with
  | None -> Alcotest.fail "histogram missing"
  | Some s ->
      Alcotest.(check int) "count past the cap" 5000 s.Obs.Metrics.count;
      Alcotest.(check (float 1e-9)) "max past the cap" 5000. s.Obs.Metrics.max;
      Alcotest.(check (float 1e-9)) "sum exact past the cap" 12502500.
        s.Obs.Metrics.sum;
      (* reservoir retains samples 1..4096: p50 = round(0.5 * 4095) + 1 *)
      Alcotest.(check (float 1e-9)) "p50 over the retained prefix" 2049.
        s.Obs.Metrics.p50;
      Alcotest.(check bool) "p99 bounded by the cap" true
        (s.Obs.Metrics.p99 <= 4096.)

(* ----- Json ---------------------------------------------------------------- *)

let test_json_roundtrip () =
  let module J = Obs.Json in
  let v =
    J.Obj
      [
        ("s", J.Str "a \"quoted\" line\nwith \t escapes and unicode \xc3\xa9");
        ("i", J.Int (-42));
        ("f", J.Float 1.5);
        ("b", J.Bool true);
        ("n", J.Null);
        ("l", J.List [ J.Int 1; J.Str "two"; J.List [] ]);
      ]
  in
  match J.of_string (J.to_string v) with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok v' -> Alcotest.(check bool) "round-trip equal" true (J.equal v v')

let test_json_unicode_escape () =
  let module J = Obs.Json in
  match J.of_string "\"caf\\u00e9\"" with
  | Ok (J.Str s) -> Alcotest.(check string) "utf-8 decoded" "caf\xc3\xa9" s
  | Ok _ -> Alcotest.fail "expected a string"
  | Error e -> Alcotest.failf "parse failed: %s" e

(* a surrogate pair is one code point (4 UTF-8 bytes); a lone surrogate
   or a non-hex digit in a \u escape is a parse error *)
let test_json_unicode_surrogates () =
  let module J = Obs.Json in
  (match J.of_string "\"\\uD83D\\uDE00!\"" with
  | Ok (J.Str s) ->
      Alcotest.(check string) "U+1F600 as 4 bytes" "\xf0\x9f\x98\x80!" s
  | Ok _ -> Alcotest.fail "expected a string"
  | Error e -> Alcotest.failf "parse failed: %s" e);
  List.iter
    (fun bad ->
      match J.of_string bad with
      | Error _ -> ()
      | Ok v -> Alcotest.failf "%s parsed as %s" bad (J.to_string v))
    [
      "\"\\uD83D\"";
      "\"\\uD83Dx\"";
      "\"\\uD83D\\u0041\"";
      "\"\\uD83D\\uD83D\"";
      "\"\\uDE00\"";
      "\"\\uDE00\\uD83D\"";
      "\"\\u00_4\"";
      "\"\\u0_41\"";
      "\"\\u+041\"";
      "\"\\u 041\"";
      "\"\\u00e\"";
    ]

(* ----- Trace JSONL round-trip ---------------------------------------------- *)

let test_trace_jsonl_roundtrip () =
  let scn = Core.Scenario.fig3 () in
  let tr = scn.Core.Scenario.trace in
  let entries = Core.Trace.json_entries tr in
  Alcotest.(check bool) "fig3 trace non-empty" true (entries <> []);
  let text = Obs.Export.lines_to_string entries in
  match Obs.Export.parse_lines text with
  | Error e -> Alcotest.failf "JSONL parse failed: %s" e
  | Ok back ->
      Alcotest.(check int)
        "entry count preserved"
        (List.length entries) (List.length back);
      Alcotest.(check bool)
        "entries equal in Trace.entries order" true
        (List.equal Obs.Json.equal entries back)

let suite =
  [
    ( "obs",
      [
        tc "counter semantics" test_counter_semantics;
        tc "histogram summary" test_histogram_semantics;
        tc "snapshot delta" test_delta;
        tc "handles alias the string API" test_handles_alias_string_api;
        tc "merge after handle use" test_merge_after_handle_use;
        tc "reservoir growth and cap" test_reservoir_growth_and_cap;
        tc "json round-trip" test_json_roundtrip;
        tc "json \\uXXXX decoding" test_json_unicode_escape;
        tc "json surrogate pairs and strict hex" test_json_unicode_surrogates;
        tc "fig3 trace JSONL round-trip" test_trace_jsonl_roundtrip;
      ] );
  ]
