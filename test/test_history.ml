(* Tests for lib/history: operations (Definition 1), histories, sequential
   legality (Definition 2, property 3), prefixes, and the generators. *)

module V = Core.Value
module Op = Core.Op
module Event = Core.Event
module Hist = Core.Hist
module Gen = Core.Histgen

let tc name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let op ?responded ?result ~id ~proc ~kind ~invoked () =
  Op.make ~id ~proc ~obj:"R" ~kind ~invoked ?responded ?result ()

let w ~id ~proc ~invoked ~responded v =
  op ~id ~proc ~kind:(Op.Write (V.Int v)) ~invoked ~responded ()

let r ~id ~proc ~invoked ~responded v =
  op ~id ~proc ~kind:Op.Read ~invoked ~responded ~result:(V.Int v) ()

(* ----- Op: Definition 1 ----------------------------------------------------- *)

let op_tests =
  [
    tc "precedes: response before invocation" (fun () ->
        let a = w ~id:1 ~proc:1 ~invoked:1 ~responded:2 5 in
        let b = w ~id:2 ~proc:2 ~invoked:3 ~responded:4 6 in
        check_bool "a<b" true (Op.precedes a b);
        check_bool "b<a" false (Op.precedes b a);
        check_bool "concurrent" false (Op.concurrent a b));
    tc "overlapping ops are concurrent" (fun () ->
        let a = w ~id:1 ~proc:1 ~invoked:1 ~responded:5 5 in
        let b = w ~id:2 ~proc:2 ~invoked:3 ~responded:8 6 in
        check_bool "concurrent" true (Op.concurrent a b));
    tc "pending op precedes nothing" (fun () ->
        let a = op ~id:1 ~proc:1 ~kind:Op.Read ~invoked:1 () in
        let b = w ~id:2 ~proc:2 ~invoked:100 ~responded:101 5 in
        check_bool "pending" false (Op.precedes a b);
        check_bool "concurrent" true (Op.concurrent a b));
    tc "active_at bounds (Definition 21)" (fun () ->
        let a = w ~id:1 ~proc:1 ~invoked:3 ~responded:7 5 in
        check_bool "before" false (Op.active_at a 2);
        check_bool "start" true (Op.active_at a 3);
        check_bool "mid" true (Op.active_at a 5);
        check_bool "end" true (Op.active_at a 7);
        check_bool "after" false (Op.active_at a 8));
    tc "pending active forever after start" (fun () ->
        let a = op ~id:1 ~proc:1 ~kind:Op.Read ~invoked:3 () in
        check_bool "later" true (Op.active_at a 1_000_000));
    tc "write_value on read raises" (fun () ->
        let a = op ~id:1 ~proc:1 ~kind:Op.Read ~invoked:1 () in
        Alcotest.check_raises "read"
          (Invalid_argument "Op.write_value: operation is a read") (fun () ->
            ignore (Op.write_value a)));
    tc "make rejects response before invocation" (fun () ->
        Alcotest.check_raises "order"
          (Invalid_argument "Op.make: response before invocation") (fun () ->
            ignore (w ~id:1 ~proc:1 ~invoked:5 ~responded:4 0)));
  ]

(* ----- Hist: well-formedness ------------------------------------------------ *)

let ev t e = { Event.time = t; event = e }
let inv ~id ~proc ~kind = Event.Invoke { op_id = id; proc; obj = "R"; kind }
let res ~id ?result () = Event.Respond { op_id = id; result }

(* [evs] must be rejected with exactly [msg] *)
let rejected ~what msg evs =
  match Hist.of_events evs with
  | Error m -> Alcotest.(check string) what msg m
  | Ok _ -> Alcotest.fail ("accepted " ^ what)

let hist_wf_tests =
  [
    tc "valid history accepted" (fun () ->
        let h =
          Hist.of_events_exn
            [
              ev 1 (inv ~id:1 ~proc:1 ~kind:(Op.Write (V.Int 5)));
              ev 2 (res ~id:1 ());
            ]
        in
        check_int "ops" 1 (List.length (Hist.ops h)));
    tc "non-increasing times rejected" (fun () ->
        rejected ~what:"equal times" "event times must be strictly increasing"
          [ ev 2 (inv ~id:1 ~proc:1 ~kind:Op.Read); ev 2 (res ~id:1 ()) ]);
    tc "duplicate op id rejected" (fun () ->
        rejected ~what:"duplicate id" "duplicate op id"
          [
            ev 1 (inv ~id:1 ~proc:1 ~kind:Op.Read);
            ev 2 (inv ~id:1 ~proc:2 ~kind:Op.Read);
          ]);
    tc "response without invocation rejected" (fun () ->
        rejected ~what:"orphan response" "response without invocation"
          [ ev 1 (res ~id:9 ()) ]);
    tc "double response rejected" (fun () ->
        rejected ~what:"double response" "duplicate response"
          [
            ev 1 (inv ~id:1 ~proc:1 ~kind:Op.Read);
            ev 2 (res ~id:1 ());
            ev 3 (res ~id:1 ());
          ]);
    tc "process overlap with itself rejected" (fun () ->
        rejected ~what:"overlapping ops by one process"
          "process 1 invokes while an operation is pending"
          [
            ev 1 (inv ~id:1 ~proc:1 ~kind:Op.Read);
            ev 2 (inv ~id:2 ~proc:1 ~kind:Op.Read);
          ]);
  ]

(* ----- Hist: views ----------------------------------------------------------- *)

let sample_hist () =
  Hist.of_ops
    [
      w ~id:1 ~proc:1 ~invoked:1 ~responded:4 100;
      r ~id:2 ~proc:2 ~invoked:2 ~responded:6 100;
      w ~id:3 ~proc:1 ~invoked:7 ~responded:9 101;
      op ~id:4 ~proc:3 ~kind:Op.Read ~invoked:8 ();
    ]

let hist_view_tests =
  [
    tc "ops in invocation order" (fun () ->
        let ids = List.map (fun (o : Op.t) -> o.id) (Hist.ops (sample_hist ())) in
        Alcotest.(check (list int)) "order" [ 1; 2; 3; 4 ] ids);
    tc "complete vs pending" (fun () ->
        let h = sample_hist () in
        check_int "complete" 3 (List.length (Hist.complete_ops h));
        check_int "pending" 1 (List.length (Hist.pending_ops h)));
    tc "writes and reads" (fun () ->
        let h = sample_hist () in
        check_int "writes" 2 (List.length (Hist.writes h));
        check_int "reads" 2 (List.length (Hist.reads h)));
    tc "prefixes grow one event at a time" (fun () ->
        let h = sample_hist () in
        let ps = Hist.prefixes h in
        check_int "count" (Hist.length h + 1) (List.length ps);
        List.iteri (fun i p -> check_int "len" i (Hist.length p)) ps;
        List.iter (fun p -> check_bool "prefix" true (Hist.is_prefix p ~of_:h)) ps);
    tc "is_prefix rejects diverging histories" (fun () ->
        let h1 = Hist.of_ops [ w ~id:1 ~proc:1 ~invoked:1 ~responded:2 5 ] in
        let h2 = Hist.of_ops [ w ~id:2 ~proc:1 ~invoked:1 ~responded:2 5 ] in
        check_bool "diverge" false (Hist.is_prefix h1 ~of_:h2));
    tc "project keeps only the object" (fun () ->
        let mixed =
          Hist.of_events_exn
            [
              ev 1 (Event.Invoke { op_id = 1; proc = 1; obj = "A"; kind = Op.Read });
              ev 2 (Event.Invoke { op_id = 2; proc = 2; obj = "B"; kind = Op.Read });
              ev 3 (Event.Respond { op_id = 1; result = Some (V.Int 0) });
              ev 4 (Event.Respond { op_id = 2; result = Some (V.Int 0) });
            ]
        in
        check_int "A" 2 (Hist.length (Hist.project mixed ~obj:"A"));
        check_int "B" 2 (Hist.length (Hist.project mixed ~obj:"B"));
        Alcotest.(check (list string)) "objects" [ "A"; "B" ] (Hist.objects mixed));
    tc "restrict_procs" (fun () ->
        let h = sample_hist () in
        let h1 = Hist.restrict_procs h ~procs:[ 1 ] in
        check_int "ops" 2 (List.length (Hist.ops h1)));
    tc "concurrent_pairs" (fun () ->
        let h = sample_hist () in
        (* (1,2) overlap; (3,4) overlap; (2,3)? 2 ends at 6, 3 starts at 7:
           precedes. (1,3),(1,4): precede. (2,4): 2 ends 6 < 8: precedes. *)
        check_int "pairs" 2 (List.length (Hist.concurrent_pairs h)));
    tc "max_time" (fun () ->
        check_int "max" 9 (Hist.max_time (sample_hist ()));
        check_int "empty" (-1) (Hist.max_time Hist.empty));
    tc "append validates" (fun () ->
        let h = Hist.of_ops [ w ~id:1 ~proc:1 ~invoked:1 ~responded:2 5 ] in
        let h' = h |> fun h -> Hist.append h (ev 3 (inv ~id:2 ~proc:1 ~kind:Op.Read)) in
        check_int "len" 3 (Hist.length h');
        Alcotest.check_raises "stale time"
          (Invalid_argument
             "Hist.append: event times must be strictly increasing") (fun () ->
            ignore (Hist.append h' (ev 1 (res ~id:2 ())))));
  ]

(* ----- Seq: Definition 2 ------------------------------------------------------ *)

let seq_tests =
  [
    tc "legal_register: reads follow writes" (fun () ->
        let s =
          [
            w ~id:1 ~proc:1 ~invoked:1 ~responded:2 100;
            r ~id:2 ~proc:2 ~invoked:3 ~responded:4 100;
          ]
        in
        check_bool "legal" true (Hist.Seq.legal_register ~init:(V.Int 0) s));
    tc "legal_register: initial value" (fun () ->
        let s = [ r ~id:1 ~proc:1 ~invoked:1 ~responded:2 0 ] in
        check_bool "legal" true (Hist.Seq.legal_register ~init:(V.Int 0) s));
    tc "legal_register: stale read is illegal" (fun () ->
        let s =
          [
            w ~id:1 ~proc:1 ~invoked:1 ~responded:2 100;
            r ~id:2 ~proc:2 ~invoked:3 ~responded:4 0;
          ]
        in
        check_bool "illegal" false (Hist.Seq.legal_register ~init:(V.Int 0) s);
        match Hist.Seq.first_illegal_read ~init:(V.Int 0) s with
        | Some o -> check_int "culprit" 2 o.Op.id
        | None -> Alcotest.fail "no culprit");
    tc "respects_precedence detects inversions" (fun () ->
        let a = w ~id:1 ~proc:1 ~invoked:1 ~responded:2 100 in
        let b = w ~id:2 ~proc:2 ~invoked:3 ~responded:4 101 in
        let h = Hist.of_ops [ a; b ] in
        check_bool "ok" true (Hist.Seq.respects_precedence h [ a; b ]);
        check_bool "inverted" false (Hist.Seq.respects_precedence h [ b; a ]));
    tc "covers_complete requires all complete ops" (fun () ->
        let a = w ~id:1 ~proc:1 ~invoked:1 ~responded:2 100 in
        let b = w ~id:2 ~proc:2 ~invoked:3 ~responded:4 101 in
        let h = Hist.of_ops [ a; b ] in
        check_bool "full" true (Hist.Seq.covers_complete h [ a; b ]);
        check_bool "missing" false (Hist.Seq.covers_complete h [ a ]));
    tc "is_linearization_of: identity case" (fun () ->
        let a = w ~id:1 ~proc:1 ~invoked:1 ~responded:2 100 in
        let b = r ~id:2 ~proc:2 ~invoked:3 ~responded:4 100 in
        let h = Hist.of_ops [ a; b ] in
        check_bool "ok" true
          (Hist.Seq.is_linearization_of ~init:(V.Int 0) h [ a; b ]));
    tc "is_linearization_of rejects foreign ops" (fun () ->
        let a = w ~id:1 ~proc:1 ~invoked:1 ~responded:2 100 in
        let foreign = w ~id:99 ~proc:9 ~invoked:1 ~responded:2 1 in
        let h = Hist.of_ops [ a ] in
        check_bool "foreign" false
          (Hist.Seq.is_linearization_of ~init:(V.Int 0) h [ a; foreign ]));
    tc "write_subsequence" (fun () ->
        let a = w ~id:1 ~proc:1 ~invoked:1 ~responded:2 100 in
        let b = r ~id:2 ~proc:2 ~invoked:3 ~responded:4 100 in
        let c = w ~id:3 ~proc:1 ~invoked:5 ~responded:6 101 in
        Alcotest.(check (list int)) "writes" [ 1; 3 ]
          (List.map (fun (o : Op.t) -> o.id)
             (Hist.Seq.write_subsequence [ a; b; c ])));
    tc "is_op_prefix" (fun () ->
        let a = w ~id:1 ~proc:1 ~invoked:1 ~responded:2 100 in
        let b = w ~id:2 ~proc:2 ~invoked:3 ~responded:4 101 in
        check_bool "prefix" true (Hist.Seq.is_op_prefix [ a ] ~of_:[ a; b ]);
        check_bool "not prefix" false (Hist.Seq.is_op_prefix [ b ] ~of_:[ a; b ]);
        check_bool "empty" true (Hist.Seq.is_op_prefix [] ~of_:[ a ]));
  ]

(* ----- generators -------------------------------------------------------------- *)

(* Generator fingerprints.  Every generated history feeds the cost ledger,
   the benchmark's inputs and `rlin check`, so the draw sequence is pinned:
   per (spec, seed), an MD5 of 200 atomic histories with their witness ids,
   an MD5 of 200 arbitrary histories, and the RNG's next [bits] after each
   family (a change in the number of draws shows there even when the
   histories agree). *)

let fingerprint_hist b h =
  let value = function V.Int n -> string_of_int n | v -> V.to_string v in
  List.iter
    (fun { Event.time; event } ->
      match event with
      | Event.Invoke { op_id; proc; obj; kind } ->
          Printf.bprintf b "%d i%d p%d %s %s;" time op_id proc obj
            (match kind with Op.Read -> "r" | Op.Write v -> "w" ^ value v)
      | Event.Respond { op_id; result } ->
          Printf.bprintf b "%d r%d %s;" time op_id
            (match result with None -> "-" | Some v -> value v))
    (Hist.events h);
  Buffer.add_char b '\n'

let fingerprint spec ~seed =
  let family draw =
    let rand = Random.State.make [| seed |] and b = Buffer.create 4096 in
    for _ = 1 to 200 do
      draw b rand
    done;
    Printf.sprintf "%s/%d"
      (Digest.to_hex (Digest.string (Buffer.contents b)))
      (Random.State.bits rand)
  in
  let atomic =
    family (fun b rand ->
        let h, wit = Gen.atomic_history_with_witness spec rand in
        fingerprint_hist b h;
        List.iter (fun (o : Op.t) -> Printf.bprintf b "%d," o.id) wit)
  in
  let arbitrary =
    family (fun b rand -> fingerprint_hist b (Gen.arbitrary_history spec rand))
  in
  atomic ^ " " ^ arbitrary

let fingerprint_cases =
  let d = Gen.default_spec in
  [
    ( "default, seed 1",
      d,
      1,
      "6e753e012e88675bbd008c4fa0983b49/377326861 \
       bcc92e737247ff06a3aa91f6cef29028/703250883" );
    ( "2 procs, 6 ops, repeated values, seed 42",
      { d with n_procs = 2; n_ops = 6; distinct_writes = false },
      42,
      "dbd0d739b83d2f15772cefe7bde5ca63/1034751386 \
       0a5e84c0de150db091cae8717e01c986/540183215" );
    ( "5 procs, 12 ops, seed 7",
      { d with n_procs = 5; n_ops = 12 },
      7,
      "7db683dc721ba19b51164c5ae52bff66/792998740 \
       eaed5f6de0a4539a152acb50263ac646/174725443" );
    ( "6 procs, 16 ops, repeated values, seed 20260807",
      { d with n_procs = 6; n_ops = 16; distinct_writes = false },
      20260807,
      "c55fdf1353a68fbfae64c63c8d7115b5/290234316 \
       6bf96f901f1e10c16c0899755107adad/832408996" );
    (* up to 40 pending ops: past 32, [Hashtbl]'s 16 buckets double and
       the fold order that picks index changes *)
    ( "40 procs, 80 ops, seed 3",
      { d with n_procs = 40; n_ops = 80 },
      3,
      "198f9dc2adae6a42c481f3b91065bc28/547623156 \
       13c526c9fee34b96b6909bc0ea62dd54/303230980" );
    ( "1 proc, 5 ops, seed 5",
      { d with n_procs = 1; n_ops = 5 },
      5,
      "1bb4f324288f0e0161b0c02eb65a5ceb/442698661 \
       e3c7096790378f75d2e86aea5855b676/467445889" );
  ]

let fingerprint_tests =
  List.map
    (fun (name, spec, seed, want) ->
      tc ("fingerprint: " ^ name) (fun () ->
          Alcotest.(check string) "atomic/bits arbitrary/bits" want
            (fingerprint spec ~seed)))
    fingerprint_cases

(* check-tree-j2's histories: 8 ops on 3 processes, the families
   alternating as [rlin check --family mixed] draws them; 665 words on
   OCaml 5.1.1 *)
let gen_alloc_test =
  tc "generation allocates per history" (fun () ->
      let spec = { Gen.default_spec with n_ops = 8; n_procs = 3 } in
      let rand = Random.State.make [| 1 |] and atomic = ref false in
      Alloc.at_most "history per call" 1000.
        (Alloc.words_per_call ~n:2000 (fun () ->
             atomic := not !atomic;
             if !atomic then Gen.atomic_history spec rand
             else Gen.arbitrary_history spec rand)))

let gen_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"atomic generator: witness is a linearization"
         ~count:100
         (QCheck.make (Gen.atomic_history_with_witness Gen.default_spec))
         (fun (h, wit) ->
           Hist.Seq.is_linearization_of ~init:Gen.default_spec.Gen.init h wit));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"arbitrary generator: well-formed" ~count:100
         (Arb.arbitrary Gen.default_spec) (fun h ->
           (* of_events_exn already validated; check ops are on one object *)
           List.length (Hist.objects h) <= 1));
    tc "timeline renders something" (fun () ->
        let h = sample_hist () in
        let s = Core.Timeline.render h in
        check_bool "nonempty" true (String.length s > 0);
        check_bool "has proc line" true
          (String.length s > 0 && String.contains s 'p'));
    tc "timeline of empty history" (fun () ->
        Alcotest.(check string) "empty" "(empty history)\n"
          (Core.Timeline.render Hist.empty));
  ]

let suite =
  [
    ("history.op", op_tests);
    ("history.wellformed", hist_wf_tests);
    ("history.views", hist_view_tests);
    ("history.seq", seq_tests);
    (* Alcotest numbers a suite's cases by position: new cases go last,
       so the existing ones keep their numbers *)
    ("history.gen", gen_tests @ fingerprint_tests @ [ gen_alloc_test ]);
  ]
