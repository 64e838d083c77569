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

(* A reported quantile never exceeds the exact one and reads at most
   1/32 below it. *)
let within what exact v =
  if v > exact || v < exact *. (1. -. (1. /. 32.)) then
    Alcotest.failf "%s: %.17g, exact %.17g" what v exact

(* The bucket array grows by whole octaves as samples arrive, never past
   [max_buckets]; count, sum and max stay exact across growth, and over
   1..5000 the quantiles stay within 1/32 of the exact order statistic
   (the sample of rank round(q * 4999), i.e. that rank plus one). *)
let test_reservoir_growth_and_cap () =
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.hist_h m "h" in
  for i = 1 to 17 do
    Obs.Metrics.observe_h h (float_of_int i)
  done;
  (match Obs.Metrics.summary m "h" with
  | None -> Alcotest.fail "histogram missing"
  | Some s ->
      Alcotest.(check int) "count across growth" 17 s.Obs.Metrics.count;
      Alcotest.(check (float 1e-9)) "sum exact" 153. s.Obs.Metrics.sum;
      Alcotest.(check (float 1e-9)) "max exact" 17. s.Obs.Metrics.max);
  let m2 = Obs.Metrics.create () in
  let h2 = Obs.Metrics.hist_h m2 "h" in
  for i = 1 to 5000 do
    Obs.Metrics.observe_h h2 (float_of_int i)
  done;
  (match Obs.Metrics.summary m2 "h" with
  | None -> Alcotest.fail "histogram missing"
  | Some s ->
      Alcotest.(check int) "count" 5000 s.Obs.Metrics.count;
      Alcotest.(check (float 1e-9)) "max exact" 5000. s.Obs.Metrics.max;
      Alcotest.(check (float 1e-9)) "sum exact" 12502500. s.Obs.Metrics.sum;
      within "p50" 2501. s.Obs.Metrics.p50;
      within "p99" 4950. s.Obs.Metrics.p99);
  (* 13 octaves of 32 buckets, plus the records around them *)
  Alcotest.(check bool) "bucket array within its bound" true
    (Obj.reachable_words (Obj.repr h2) <= 13 * 32 + 16)

let summary_of samples =
  let m = Obs.Metrics.create () in
  List.iter (Obs.Metrics.observe m "h") samples;
  Option.get (Obs.Metrics.summary m "h")

(* Quantiles against an exact sort, which reads rank round(q * (n - 1)):
   equal on integers below 64, within 1/32 on floats from 1e-7 to 1e10. *)
let test_quantiles_against_sort () =
  let rand = Random.State.make [| 64 |] in
  for trial = 1 to 400 do
    let small = trial mod 2 = 0 in
    let scale = Float.pow 10. (float_of_int (Random.State.int rand 12 - 4)) in
    let samples =
      List.init
        (1 + Random.State.int rand 500)
        (fun _ ->
          if small then float_of_int (Random.State.int rand 64)
          else scale *. (0.001 +. Random.State.float rand 1000.))
    in
    let sorted = Array.of_list samples in
    Array.sort Float.compare sorted;
    let s = summary_of samples in
    List.iter
      (fun (q, v) ->
        let exact =
          sorted.(int_of_float
                    (Float.round (q *. float_of_int (Array.length sorted - 1))))
        in
        let what = Printf.sprintf "q%g of %d samples" q (Array.length sorted) in
        if small then Alcotest.(check (float 0.)) what exact v
        else within what exact v)
      [ (0.5, s.p50); (0.9, s.p90); (0.95, s.p95); (0.99, s.p99) ]
  done;
  (* clamped into [min, max]: one repeated value reads exactly, though
     1000 lies inside the bucket [992, 1024) *)
  Alcotest.(check (float 0.)) "a repeated 1000" 1000.
    (summary_of [ 1000.; 1000. ]).p99

(* A merge is a per-bucket add: two halves folded in either order read
   the same as one histogram that saw every sample.  The halves span
   different octaves, so the destination's array widens upwards in one
   order and downwards in the other. *)
let test_merge_halves () =
  let samples = List.init 2000 (fun i -> float_of_int (i * 7919 mod 100_003)) in
  let low, high = List.partition (fun v -> v < 5000.) samples in
  let registry vs =
    let m = Obs.Metrics.create () in
    List.iter (Obs.Metrics.observe m "h") vs;
    m
  in
  let merged first second =
    let m = Obs.Metrics.create () in
    Obs.Metrics.merge ~into:m (registry first);
    Obs.Metrics.merge ~into:m (registry second);
    m
  in
  let whole = registry samples in
  List.iter
    (fun (what, m) ->
      Alcotest.(check bool) what true
        (Obs.Metrics.summary m "h" = Obs.Metrics.summary whole "h"
        && Obs.Metrics.snapshot m = Obs.Metrics.snapshot whole))
    [ ("low then high", merged low high); ("high then low", merged high low) ]

let test_edge_samples () =
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.hist_h m "h" in
  let edges =
    [ 0.; -1.; Float.nan; Float.infinity; Float.neg_infinity; 5e-324;
      1e-300; Float.min_float; 1e300; Float.max_float; -0. ]
  in
  List.iter (Obs.Metrics.observe_h h) edges;
  Alcotest.(check bool) "bucket array within max_buckets" true
    (Obj.reachable_words (Obj.repr h) <= Obs.Metrics.max_buckets + 16);
  (match Obs.Metrics.summary m "h" with
  | None -> Alcotest.fail "histogram missing"
  | Some s ->
      Alcotest.(check int) "every sample counted" (List.length edges)
        s.Obs.Metrics.count;
      Alcotest.(check (float 0.)) "min exact" Float.neg_infinity
        s.Obs.Metrics.min;
      Alcotest.(check (float 0.)) "max exact" Float.infinity s.Obs.Metrics.max);
  ignore
    (Obs.Metrics.delta
       ~before:(Obs.Metrics.snapshot (Obs.Metrics.create ()))
       ~after:(Obs.Metrics.snapshot m));
  Alcotest.(check (float 0.)) "samples <= 0 share the exact zero bucket" 0.
    (summary_of [ 0.; -1.; 3.; 0. ]).p50;
  Alcotest.(check (float 0.)) "the zero bucket reads at most max" (-1.)
    (summary_of [ -2.; -1. ]).p50

(* [delta]'s quantiles cover the window alone, not samples recorded
   before it *)
let test_delta_window_quantiles () =
  let m = Obs.Metrics.create () in
  for _ = 1 to 1000 do
    Obs.Metrics.observe m "h" 100.
  done;
  let before = Obs.Metrics.snapshot m in
  for _ = 1 to 3 do
    Obs.Metrics.observe m "h" 1.
  done;
  let d = Obs.Metrics.delta ~before ~after:(Obs.Metrics.snapshot m) in
  List.iter
    (fun (k, v) ->
      Alcotest.(check (option (float 0.))) k (Some v) (List.assoc_opt k d))
    [ ("h.n", 3.); ("h.mean", 1.); ("h.p50", 1.); ("h.p95", 1.); ("h.p99", 1.) ]

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

(* ----- Json: nesting bound, allocation, scale ---------------------------- *)

let nesting_error = "json: at offset 512: nesting deeper than 512"

let test_json_nesting_bound () =
  let module J = Obs.Json in
  let nested d = String.make d '[' ^ String.make d ']' in
  (match J.of_string (nested 512) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "512 levels rejected: %s" e);
  Alcotest.(check (result reject string))
    "513 levels fail at the 513th bracket" (Error nesting_error)
    (J.of_string (nested 513));
  (* objects count as levels too: the 513th '{' is at byte 5 * 512 *)
  Alcotest.(check (result reject string))
    "513 nested objects"
    (Error "json: at offset 2560: nesting deeper than 512")
    (J.of_string (String.concat "" (List.init 513 (fun _ -> {|{"a":|}))));
  (* ten million brackets stop at the bound instead of recursing *)
  Alcotest.(check (result reject string))
    "a 10M-deep line is an error" (Error nesting_error)
    (J.of_string (String.make 10_000_000 '['))

(* A serve trace line allocates its value and nothing else: 9 keys,
   4 strings, 4 ints, 9 pairs, 9 cons cells, 2 objects, the [Ok] and the
   cursor come to 106 words.  [Gc.minor_words], not [Gc.counters]: the
   latter's minor count moves only at a minor collection. *)
let test_json_parse_allocation () =
  let line =
    {|{"t":17,"kind":"invoke","op":5,"proc":2,"obj":"R3","opkind":"write","value":{"type":"int","v":107}}|}
  in
  ignore (Obs.Json.of_string line);
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Obs.Json.of_string line))
  done;
  let per_parse = (Gc.minor_words () -. before) /. 1000. in
  if per_parse > 150. then
    Alcotest.failf "%.1f minor words per parse (at most 150)" per_parse

let test_json_scale () =
  let module J = Obs.Json in
  List.iter
    (fun (what, v) ->
      match J.of_string (J.to_string v) with
      | Error e -> Alcotest.failf "%s: %s" what e
      | Ok v' ->
          Alcotest.(check bool) (what ^ " round-trips") true (J.equal v v'))
    [
      ("1M-element array", J.List (List.init 1_000_000 (fun i -> J.Int i)));
      ( "100k-field object",
        J.Obj
          (List.init 100_000 (fun i -> (Printf.sprintf "k%d" i, J.Str "v"))) );
    ]

(* ----- Json against the reference codec ----------------------------------- *)

(* [Obs.Json] must accept the same language as the codec it replaced
   ([Json_ref]), return the same value or the same error string, and
   render the same bytes.  Every input here nests at most five levels,
   far inside the nesting bound, which is the one place the two may
   differ. *)

let pick rand a = a.(Random.State.int rand (Array.length a))

let fuzz_string rand =
  let atoms =
    [| "a"; "Z"; "0"; " "; "\""; "\\"; "/"; "\n"; "\r"; "\t"; "\b"; "\012";
       "\000"; "\001"; "\031"; "\127"; "\xc3\xa9"; "\xe2\x82\xac";
       "\xf0\x9f\x98\x80"; "\xff"; "\x80"; "invoke"; "R3" |]
  in
  String.concat ""
    (List.init (Random.State.int rand 8) (fun _ -> pick rand atoms))

let fuzz_int rand =
  match Random.State.int rand 4 with
  | 0 ->
      pick rand
        [| min_int; max_int; min_int + 1; 0; -1; 999_999_999_999_999_999;
           -999_999_999_999_999_999; 1_000_000_000_000_000_000;
           -1_000_000_000_000_000_000 |]
  | 1 -> Random.State.bits rand lsl Random.State.int rand 34
  | 2 -> -Random.State.int rand 1000
  | _ -> Random.State.int rand 1000

let fuzz_float rand =
  match Random.State.int rand 3 with
  | 0 ->
      pick rand
        [| 0.; -0.; Float.nan; Float.infinity; Float.neg_infinity; 1e15; 1e16;
           -2.5; 0.1; 1e-7; 5e-324; Float.max_float; Float.min_float |]
  | 1 -> Random.State.float rand 1e6 -. 5e5
  | _ -> Int64.float_of_bits (Random.State.int64 rand Int64.max_int)

let rec fuzz_value rand depth =
  let open Obs.Json in
  match Random.State.int rand (if depth = 0 then 5 else 7) with
  | 0 -> Null
  | 1 -> Bool (Random.State.bool rand)
  | 2 -> Int (fuzz_int rand)
  | 3 -> Float (fuzz_float rand)
  | 4 -> Str (fuzz_string rand)
  | 5 ->
      List
        (List.init (Random.State.int rand 5) (fun _ ->
             fuzz_value rand (depth - 1)))
  | _ ->
      Obj
        (List.init (Random.State.int rand 5) (fun _ ->
             (fuzz_string rand, fuzz_value rand (depth - 1))))

(* a record as [rlin serve] reads it *)
let trace_record rand =
  let value () =
    match Random.State.int rand 3 with
    | 0 -> History.Value.Bot
    | 1 -> History.Value.Int (fuzz_int rand)
    | _ -> History.Value.Pair (Random.State.int rand 4, Random.State.int rand 9)
  in
  let op_id = Random.State.int rand 100_000 in
  let ev =
    if Random.State.bool rand then
      Serve.Ingest.Invoke
        {
          op_id;
          proc = Random.State.int rand 8;
          obj = Printf.sprintf "R%d" (Random.State.int rand 8);
          kind =
            (if Random.State.bool rand then History.Op.Read
             else History.Op.Write (value ()));
        }
    else
      Serve.Ingest.Respond
        {
          op_id;
          result = (if Random.State.bool rand then None else Some (value ()));
        }
  in
  Serve.Ingest.event_json ~time:(Random.State.int rand 1_000_000) ev

(* number text around the 18-digit fast path and the float fallback *)
let number_text rand =
  let digits =
    String.init (Random.State.int rand 23) (fun _ ->
        Char.chr (Char.code '0' + Random.State.int rand 10))
  in
  (if Random.State.bool rand then "-" else "")
  ^ digits
  ^ pick rand
      [| ""; ""; ""; "."; ".5"; "e5"; "E-2"; "e+"; "-"; "+1"; "x"; "]" |]

let mutate rand s =
  let n = String.length s in
  let i = Random.State.int rand (n + 1) in
  let splice ins drop =
    String.sub s 0 i ^ ins ^ String.sub s (i + drop) (n - i - drop)
  in
  match Random.State.int rand 5 with
  | 0 -> String.sub s 0 i
  | 1 when i < n ->
      let bit = 1 lsl Random.State.int rand 8 in
      splice (String.make 1 (Char.chr (Char.code s.[i] lxor bit))) 1
  | 2 when i < n ->
      splice
        (pick rand
           [| "{"; "}"; "["; "]"; ","; ":"; "\""; "\\"; " "; "-"; "."; "e";
              "0"; "n" |])
        1
  | 3 ->
      splice
        ("\\u"
        ^ pick rand
            [| ""; "0041"; "00e9"; "001f"; "D83D"; "DE00"; "D83D\\uDE00";
               "dbff\\udfff"; "12"; "zz12"; "+041" |])
        0
  | _ -> splice (pick rand [| " "; "\n"; "\t"; "\r" |]) 0

let test_json_against_reference () =
  let rand = Random.State.make [| 20261017 |] in
  let inputs = ref 0 in
  let agree input =
    incr inputs;
    match (Obs.Json.of_string input, Json_ref.of_string input) with
    | Ok a, Ok b when Obs.Json.equal a b -> ()
    | Error a, Error b when String.equal a b -> ()
    | got, want ->
        let show = function
          | Ok v -> "Ok " ^ Json_ref.to_string v
          | Error e -> "Error " ^ e
        in
        Alcotest.failf "%S: parsed to %s, reference %s" input (show got)
          (show want)
  in
  let rendered v =
    let s = Obs.Json.to_string v in
    if not (String.equal s (Json_ref.to_string v)) then
      Alcotest.failf "rendered %S, reference %S" s (Json_ref.to_string v);
    s
  in
  for _ = 1 to 4_000 do
    let s = rendered (fuzz_value rand 4) in
    agree s;
    for _ = 1 to 3 do agree (mutate rand s) done
  done;
  for _ = 1 to 2_000 do
    let s = rendered (trace_record rand) in
    agree s;
    agree (mutate rand s);
    agree (mutate rand (mutate rand s))
  done;
  for _ = 1 to 2_000 do
    let t = number_text rand in
    agree t;
    agree ("[" ^ t ^ "]")
  done;
  Alcotest.(check bool) "at least 20k inputs" true (!inputs >= 20_000)

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

(* ----- allocation ceilings ------------------------------------------------ *)

(* A registry shaped like one chaos run's: counters, a gauge, and two
   histograms of 12 samples each. *)
let run_registry i =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr m "sched.steps" ~by:(200 + (i mod 50));
  Obs.Metrics.incr m "net.sends" ~by:(90 + (i mod 7));
  Obs.Metrics.set_gauge m "net.in_flight" (float_of_int (i mod 5));
  for k = 1 to 12 do
    Obs.Metrics.observe m "op.latency.sim"
      (float_of_int (((i + k) mod 60) + 1));
    Obs.Metrics.observe m "reg.abd.quorum.need" 3.
  done;
  m

let alloc_tests =
  [
    tc "observe_h allocates nothing" (fun () ->
        let h = Obs.Metrics.hist_h (Obs.Metrics.create ()) "h" in
        Alloc.at_most "observe_h per call" 0.01
          (Alloc.words_per_call ~n:100_000 (fun () ->
               Obs.Metrics.observe_h h 42.)));
    tc "set_gauge_int_h allocates nothing" (fun () ->
        let g = Obs.Metrics.gauge_h (Obs.Metrics.create ()) "g" in
        let n = ref 0 in
        Alloc.at_most "set_gauge_int_h per call" 0.01
          (Alloc.words_per_call ~n:100_000 (fun () ->
               incr n;
               Obs.Metrics.set_gauge_int_h g !n)));
    tc "10,000 registry merges allocate at most 64 words each" (fun () ->
        let regs = Array.init 100 run_registry in
        let into = Obs.Metrics.create () and next = ref 0 in
        Alloc.at_most "merge per registry" 64.
          (Alloc.heap_words_per_call ~n:9_999 (fun () ->
               Obs.Metrics.merge ~into regs.(!next mod 100);
               incr next));
        Alcotest.(check int) "every sample merged" 120_000
          (Option.get (Obs.Metrics.summary into "op.latency.sim")).count);
  ]

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
        tc "histogram quantiles against a sort" test_quantiles_against_sort;
        tc "histogram merge of halves in either order" test_merge_halves;
        tc "histogram edge samples stay bounded" test_edge_samples;
        tc "delta quantiles cover only the window" test_delta_window_quantiles;
        tc "json round-trip" test_json_roundtrip;
        tc "json \\uXXXX decoding" test_json_unicode_escape;
        tc "json surrogate pairs and strict hex" test_json_unicode_surrogates;
        tc "json nesting bound" test_json_nesting_bound;
        tc "json parse allocates only its value" test_json_parse_allocation;
        tc "json 1M array and 100k object" test_json_scale;
        tc "json agrees with the reference codec" test_json_against_reference;
        tc "fig3 trace JSONL round-trip" test_trace_jsonl_roundtrip;
      ] );
    ("obs.alloc", alloc_tests);
  ]
