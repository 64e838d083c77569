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
  (* nested spans record under their "/"-joined path, as the battery's do *)
  Obs.Span.with_root ~metrics:m "battery" (fun () ->
      Obs.Span.with_span ~metrics:m "e1" ignore);
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
  Alcotest.(check (float 1e-9)) "root span" 1. (get "span.battery.calls");
  Alcotest.(check (float 1e-9)) "nested span" 1. (get "span.battery/e1.calls");
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

let test_json_member_first_binding () =
  let module J = Obs.Json in
  let v = J.Obj [ ("a", J.Int 1); ("b", J.Int 2); ("a", J.Int 3) ] in
  Alcotest.(check bool) "the first of two bindings" true (J.member "a" v = Some (J.Int 1));
  Alcotest.(check bool) "a later key" true (J.member "b" v = Some (J.Int 2));
  Alcotest.(check bool) "a missing key" true (J.member "c" v = None);
  Alcotest.(check bool) "not an object" true (J.member "a" (J.List [ v ]) = None)

let contains s needle =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  go 0

(* [r] is an [Error] whose message names the field [k], quoted as
   [Obs.Json.field] quotes it *)
let refuses_naming k = function
  | Ok _ -> false
  | Error e -> contains e (Printf.sprintf "%S" k)

let test_json_decoders () =
  let module J = Obs.Json in
  let check = Alcotest.(check bool) in
  let ints = J.list_of J.to_int_opt in
  let v =
    J.Obj
      [
        ("n", J.Int 3);
        ("xs", J.List [ J.Int 1; J.Int 2 ]);
        ("bad", J.List [ J.Int 1; J.Str "2" ]);
        ("none", J.Null);
      ]
  in
  check "a present key" true (J.field "n" J.to_int_opt v = Ok 3);
  check "an absent key" true (refuses_naming "m" (J.field "m" J.to_int_opt v));
  check "a refused value" true
    (refuses_naming "n" (J.field "n" J.to_string_opt v));
  check "not an object" true
    (refuses_naming "n" (J.field "n" J.to_int_opt (J.List [ v ])));
  check "an absent key's default" true (J.field_or "m" 7 J.to_int_opt v = Ok 7);
  check "a null key's default" true (J.field_or "none" 7 J.to_int_opt v = Ok 7);
  check "a present key over the default" true
    (J.field_or "n" 7 J.to_int_opt v = Ok 3);
  check "a refused value is no default" true
    (refuses_naming "n" (J.field_or "n" "d" J.to_string_opt v));
  check "a list of ints" true (J.field "xs" ints v = Ok [ 1; 2 ]);
  check "the empty list" true (ints (J.List []) = Some []);
  check "one bad item refuses the list" true
    (refuses_naming "bad" (J.field "bad" ints v));
  check "not a list" true (ints (J.Int 1) = None)

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

(* 10^j, exact for j <= 22 *)
let pow10 j = float_of_string ("1e" ^ string_of_int j)

(* Floats of every shape [Obs.Json]'s direct float path decides on:
   integral values to either side of 1e15, short decimals, the range
   ends 1e-4 and 1e12, values that need 13 to 17 digits, and
   subnormals. *)
let fuzz_float rand =
  match Random.State.int rand 9 with
  | 0 ->
      pick rand
        [| 0.; -0.; Float.nan; Float.infinity; Float.neg_infinity; 1e15; 1e16;
           -2.5; 0.1; 1e-7; 5e-324; Float.max_float; Float.min_float;
           Float.pred 1e15; Float.succ 1e15; 1e-4; Float.pred 1e-4;
           9.99999999999e-5; 1e12; Float.pred 1e12; 999999999999.5;
           99999999999.9; 0.1 +. 0.2; 1. /. 3.; 2. /. 3. |]
  | 1 -> Random.State.float rand 1e6 -. 5e5
  | 2 -> Int64.float_of_bits (Random.State.int64 rand Int64.max_int)
  | 3 ->
      (* a short decimal k/10^j of up to 15 digits *)
      let digits = 1 + Random.State.int rand 15 in
      Int64.to_float (Random.State.int64 rand (Int64.of_float (pow10 digits)))
      /. pow10 (Random.State.int rand 17)
  | 4 ->
      (* Chaos's fault rungs and fleet-style ratios *)
      if Random.State.bool rand then
        pick rand [| 0.01; 0.02; 0.05; 0.1; 0.15; 0.2; 0.25; 0.5 |]
      else
        float_of_int (Random.State.int rand 100_000)
        /. float_of_int (1 + Random.State.int rand 100_000)
  | 5 ->
      (* integral, just below or above 1e15 *)
      1e15 +. float_of_int (Random.State.int rand 2_001 - 1_000)
  | 6 ->
      (* next to the range ends 1e-4 and 1e12, as is or with 12 or 13
         digits *)
      let edge, places =
        if Random.State.bool rand then (1e-4, 16) else (1e12, 1)
      in
      let x = edge *. (1. +. (Random.State.float rand 2e-11 -. 1e-11)) in
      if Random.State.bool rand then x
      else Float.round (x *. pow10 places) /. pow10 places
  | 7 ->
      (* a short decimal nudged by an ulp or two: 13 to 17 digits *)
      let x =
        float_of_int (Random.State.int rand 1_000_000)
        /. pow10 (Random.State.int rand 10)
      in
      if Random.State.bool rand then Float.succ x else Float.pred (Float.pred x)
  | _ -> Int64.float_of_bits (Random.State.int64 rand 0x000F_FFFF_FFFF_FFFFL)

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

(* [s] with its lines, split at '\n', duplicated at one or shuffled *)
let mutate_lines rand s =
  let lines = Array.of_list (String.split_on_char '\n' s) in
  let n = Array.length lines in
  if Random.State.bool rand then
    let d = Random.State.int rand n in
    String.concat "\n"
      (Array.to_list
         (Array.append (Array.sub lines 0 (d + 1)) (Array.sub lines d (n - d))))
  else begin
    for j = n - 1 downto 1 do
      let k = Random.State.int rand (j + 1) in
      let l = lines.(j) in
      lines.(j) <- lines.(k);
      lines.(k) <- l
    done;
    String.concat "\n" (Array.to_list lines)
  end

(* the length of the run of digits at [i] *)
let rec digits_at s i =
  if i < String.length s && s.[i] >= '0' && s.[i] <= '9' then
    1 + digits_at s (i + 1)
  else 0

(* [s] truncated, with a bit flipped, a byte or escape, a number or
   whitespace spliced in, or its lines duplicated or shuffled *)
let mutate rand s =
  let n = String.length s in
  let i = Random.State.int rand (n + 1) in
  let splice ins drop =
    String.sub s 0 i ^ ins ^ String.sub s (i + drop) (n - i - drop)
  in
  match Random.State.int rand 7 with
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
  | 4 ->
      (* in place of the digits at [i], if any *)
      splice
        (pick rand
           [| "1e308"; "-1"; "1e309"; "-0"; "0.5"; "4611686018427387904";
              "99999999999999999999" |])
        (digits_at s i)
  | 5 -> mutate_lines rand s
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

(* [n] bytes of text with an escape at about one offset in 40 *)
let escaped_text rand n =
  String.init n (fun _ ->
      if Random.State.int rand 40 = 0 then
        pick rand [| '"'; '\\'; '\n'; '\t'; '\000'; '\031' |]
      else Char.chr (Char.code 'a' + Random.State.int rand 26))

(* [Obs.Json.to_string] renders into a writer its domain reuses: a
   rendering past 64 KB, the small ones after it, and renderings on two
   domains at once must each come out as the reference's bytes.  So must
   strings of 100 to 70,000 bytes with escapes anywhere, and, on the
   fresh writer a rendering past 64 KB leaves the next one, a first token
   longer than its 128 bytes and every kind of token at every offset
   across them: the writer then grows mid-string, mid-escape and
   mid-number. *)
let test_json_reused_buffer () =
  let module J = Obs.Json in
  let big = J.List (List.init 20_000 (fun i -> J.Int i)) in
  let same v = String.equal (J.to_string v) (Json_ref.to_string v) in
  let render_all seed =
    let rand = Random.State.make [| seed |] in
    List.for_all
      (fun k ->
        let v = if k mod 100 = 0 then big else fuzz_value rand 4 in
        same v)
      (List.init 1_000 Fun.id)
  in
  let past_64k = J.Str (escaped_text (Random.State.make [| 0 |]) 70_000) in
  let fresh_writer () = ignore (J.to_string past_64k) in
  let tokens =
    [ J.Int min_int; J.Int 7; J.Float 1e14; J.Float (-0.5);
      J.Float 123456.789; J.Float (1. /. 3.); J.Float 1e-7; J.Null;
      J.Bool false; J.Str "a\"b\\c\nd\001e"; J.Obj [ ("k\te\"y", J.Int 1) ];
      J.Str (String.make 30 'x') ]
  in
  let straddles t =
    List.for_all
      (fun pad ->
        fresh_writer ();
        same (J.List [ J.Str (String.make pad 'p'); t ]))
      (List.init 40 (fun i -> 88 + i))
  in
  let growth seed =
    let rand = Random.State.make [| seed |] in
    same past_64k
    && List.for_all
         (fun _ ->
           same (J.Str (escaped_text rand (100 + Random.State.int rand 69_901)))
           &&
           (fresh_writer ();
            same (J.Str (escaped_text rand (129 + Random.State.int rand 400)))))
         (List.init 50 Fun.id)
    && List.for_all straddles tokens
  in
  let other = Domain.spawn (fun () -> render_all 2 && growth 4) in
  let here = render_all 1 && growth 3 in
  Alcotest.(check bool) "this domain's renderings" true here;
  Alcotest.(check bool) "the other domain's renderings" true (Domain.join other)

(* Floats alone, many more of them: [Obs.Json] writes most without
   [Printf], and each must still come out as the reference's bytes. *)
let test_json_floats_against_reference () =
  let rand = Random.State.make [| 20261018 |] in
  let agree f =
    let v = Obs.Json.Float f in
    let got = Obs.Json.to_string v and want = Json_ref.to_string v in
    if not (String.equal got want) then
      Alcotest.failf "%h rendered %S, reference %S" f got want
  in
  for _ = 1 to 200_000 do
    let f = fuzz_float rand in
    agree f;
    agree (-.f)
  done;
  (* decimals of 13 to 17 significant digits, most of them in [1e-4,
     1e11), where a float that [short_k] finds no decimal for goes
     straight to "%.17g" *)
  for _ = 1 to 50_000 do
    let digits = 13 + Random.State.int rand 5 in
    let low = Int64.of_float (pow10 (digits - 1)) in
    let m = Int64.add low (Random.State.int64 rand (Int64.mul 9L low)) in
    let f = Int64.to_float m /. pow10 (Random.State.int rand 23) in
    agree f;
    agree (-.f)
  done;
  (* one and two ulps either side of each end of that range and of 1e15 *)
  List.iter
    (fun edge ->
      List.iter
        (fun f ->
          agree f;
          agree (-.f))
        [ Float.pred (Float.pred edge); Float.pred edge; edge;
          Float.succ edge; Float.succ (Float.succ edge) ])
    [ 1e-4; 1e11; 1e15 ]

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
    tc "json renders a float without Printf" (fun () ->
        (* 2 and 61 words on OCaml 5.1.1, the string returned; 27 and
           192 while each rendering made its own buffer, 83 and 358 while
           every float went through [Printf] *)
        Alloc.at_most "rendering Float 0.05" 3.
          (Alloc.words_per_call ~n:10_000 (fun () ->
               Obs.Json.to_string (Obs.Json.Float 0.05)));
        let config = Core.Run_config.json (Core.Chaos.gen_config ~seed:5L 3) in
        Alloc.at_most "rendering a chaos config" 92.
          (Alloc.words_per_call ~n:10_000 (fun () ->
               Obs.Json.to_string config)));
    tc "json renders a trace line in at most 21 words" (fun () ->
        (* 14 words on OCaml 5.1.1, the 99-byte string returned: a
           writer that allocated per token would pass 21 at once *)
        let line =
          Serve.Ingest.event_json ~time:17
            (Serve.Ingest.Invoke
               {
                 op_id = 5;
                 proc = 2;
                 obj = "R3";
                 kind = History.Op.Write (History.Value.Int 107);
               })
        in
        Alloc.at_most "rendering a serve trace line" 21.
          (Alloc.words_per_call ~n:10_000 (fun () -> Obs.Json.to_string line)));
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
        tc "json member returns a key's first binding" test_json_member_first_binding;
        tc "json field, field_or and list_of name the refused key"
          test_json_decoders;
        tc "json nesting bound" test_json_nesting_bound;
        tc "json parse allocates only its value" test_json_parse_allocation;
        tc "json 1M array and 100k object" test_json_scale;
        tc "json agrees with the reference codec" test_json_against_reference;
        tc "json renders through each domain's reused buffer as the reference"
          test_json_reused_buffer;
        tc "fig3 trace JSONL round-trip" test_trace_jsonl_roundtrip;
        tc "json renders 200k floats and their negations as the reference"
          test_json_floats_against_reference;
      ] );
    ("obs.alloc", alloc_tests);
  ]
