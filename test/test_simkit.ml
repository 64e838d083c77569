(* Tests for lib/simkit: fibers (effects), scheduler, RNG, traces. *)

module Fiber = Core.Fiber
module Sched = Core.Sched
module Trace = Core.Trace
module Rng = Core.Rng
module Op = Core.Op

let tc name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ----- rng ------------------------------------------------------------------ *)

let rng_tests =
  [
    tc "deterministic for a seed" (fun () ->
        let a = Rng.create 42L and b = Rng.create 42L in
        for _ = 1 to 50 do
          check_bool "same" true (Rng.next_int64 a = Rng.next_int64 b)
        done);
    tc "different seeds diverge" (fun () ->
        let a = Rng.create 1L and b = Rng.create 2L in
        check_bool "diff" true (Rng.next_int64 a <> Rng.next_int64 b));
    tc "int respects bound" (fun () ->
        let r = Rng.create 7L in
        for _ = 1 to 200 do
          let x = Rng.int r 10 in
          check_bool "bound" true (x >= 0 && x < 10)
        done);
    tc "int rejects non-positive bound" (fun () ->
        Alcotest.check_raises "bound"
          (Invalid_argument "Rng.int: bound must be positive") (fun () ->
            ignore (Rng.int (Rng.create 1L) 0)));
    tc "coin is fair-ish" (fun () ->
        let r = Rng.create 11L in
        let ones = ref 0 in
        for _ = 1 to 1000 do
          if Rng.coin r = 1 then incr ones
        done;
        check_bool "fair" true (!ones > 400 && !ones < 600));
    tc "split yields independent stream" (fun () ->
        let a = Rng.create 5L in
        let b = Rng.split a in
        check_bool "indep" true (Rng.next_int64 a <> Rng.next_int64 b));
    tc "copy preserves state" (fun () ->
        let a = Rng.create 9L in
        ignore (Rng.next_int64 a);
        let b = Rng.copy a in
        check_bool "same" true (Rng.next_int64 a = Rng.next_int64 b));
    tc "the stream from seed 1 is pinned" (fun () ->
        (* in draw order; they match an independent SplitMix64 *)
        let g = Rng.create 1L in
        let a = Rng.next_int64 g in
        let b = Rng.next_int64 g in
        let i = Rng.int g 1000 in
        let f = Rng.float g in
        let bit = Rng.bool g in
        let s = Rng.split g in
        let s1 = Rng.next_int64 s in
        let s2 = Rng.int s 1000 in
        let after = Rng.next_int64 g in
        let check_i64 = Alcotest.(check int64) in
        check_i64 "1st next_int64" (-7995527694508729151L) a;
        check_i64 "2nd next_int64" (-4689498862643123097L) b;
        check_int "int 1000" 647 i;
        Alcotest.(check (float 0.)) "float" 0x1.c7061a43b90b2p-2 f;
        check_bool "bool" true bit;
        check_i64 "split: next_int64" 3781009645926030059L s1;
        check_int "split: int 1000" 858 s2;
        check_i64 "parent after split" (-2262517385565684571L) after;
        let draws n f =
          let g = Rng.create 1L in
          List.init n (fun _ -> f g)
        in
        Alcotest.(check (list int))
          "int 1000"
          [ 616; 129; 647; 58; 190; 512; 761; 133; 130; 237; 184; 967 ]
          (draws 12 (fun g -> Rng.int g 1000));
        Alcotest.(check (list bool))
          "bool"
          [ true; true; false; true; true; false; true; true; false; false;
            true; false ]
          (draws 12 Rng.bool);
        Alcotest.(check (list (float 0.)))
          "float"
          [ 0x1.22145bd91204bp-1; 0x1.7dd71b42cb1ddp-1; 0x1.f12745ddf664ap-1;
            0x1.c7061a43b90b2p-2 ]
          (draws 4 Rng.float));
  ]

(* ----- fibers ------------------------------------------------------------------ *)

let fiber_tests =
  [
    tc "runs to completion without yields" (fun () ->
        let hit = ref false in
        let f = Fiber.spawn ~pid:1 (fun () -> hit := true) in
        check_bool "runnable" true (Fiber.status f = Fiber.Runnable);
        ignore (Fiber.step f);
        check_bool "hit" true !hit;
        check_bool "done" true (Fiber.status f = Fiber.Finished));
    tc "yield suspends exactly there" (fun () ->
        let stage = ref 0 in
        let f =
          Fiber.spawn ~pid:1 (fun () ->
              stage := 1;
              Fiber.yield ();
              stage := 2;
              Fiber.yield ();
              stage := 3)
        in
        ignore (Fiber.step f);
        check_int "stage1" 1 !stage;
        ignore (Fiber.step f);
        check_int "stage2" 2 !stage;
        ignore (Fiber.step f);
        check_int "stage3" 3 !stage;
        check_bool "done" true (Fiber.status f = Fiber.Finished));
    tc "stepping a finished fiber raises" (fun () ->
        let f = Fiber.spawn ~pid:1 (fun () -> ()) in
        ignore (Fiber.step f);
        Alcotest.check_raises "dead"
          (Invalid_argument "Fiber.step: fiber is not runnable") (fun () ->
            ignore (Fiber.step f)));
    tc "exception marks fiber failed" (fun () ->
        let f = Fiber.spawn ~pid:1 (fun () -> failwith "boom") in
        (match Fiber.step f with
        | Fiber.Failed (Failure m) -> Alcotest.(check string) "msg" "boom" m
        | _ -> Alcotest.fail "expected failure");
        check_bool "failed" true
          (match Fiber.status f with Fiber.Failed _ -> true | _ -> false));
    tc "exception after a yield" (fun () ->
        let f =
          Fiber.spawn ~pid:1 (fun () ->
              Fiber.yield ();
              failwith "later")
        in
        ignore (Fiber.step f);
        match Fiber.step f with
        | Fiber.Failed (Failure m) -> Alcotest.(check string) "msg" "later" m
        | _ -> Alcotest.fail "expected failure");
    tc "run_to_completion bounded" (fun () ->
        let f =
          Fiber.spawn ~pid:1 (fun () ->
              while true do
                Fiber.yield ()
              done)
        in
        check_bool "still runnable" true
          (Fiber.run_to_completion f ~max_steps:10 = Fiber.Runnable));
    tc "many fibers interleave independently" (fun () ->
        let log = ref [] in
        let mk tag =
          Fiber.spawn ~pid:0 (fun () ->
              log := (tag ^ "a") :: !log;
              Fiber.yield ();
              log := (tag ^ "b") :: !log)
        in
        let f1 = mk "x" and f2 = mk "y" in
        ignore (Fiber.step f1);
        ignore (Fiber.step f2);
        ignore (Fiber.step f2);
        ignore (Fiber.step f1);
        Alcotest.(check (list string)) "order" [ "xb"; "yb"; "ya"; "xa" ] !log);
  ]

(* ----- scheduler ----------------------------------------------------------------- *)

(* Four 10-step [Sched.run]s of [policy] over pids spawned out of order,
   with pid 101 crashed after the first, pid 3 run to completion after the
   second, and 101 restarted and 3 recycled after the third; the pids the
   policy picked, in order.  Every decision also checks that
   [live_count]/[live_nth] agree with [live_pids]. *)
let pinned_schedule policy =
  let s = Sched.create ~metrics:(Obs.Metrics.create ()) () in
  let spin n () =
    for _ = 1 to n do
      Fiber.yield ()
    done
  in
  List.iter
    (fun (pid, n) -> Sched.spawn s ~pid (spin n))
    [ (100, 40); (3, 2); (0, 40); (101, 40); (7, 40) ];
  let picks = ref [] in
  let recording t =
    let live = Sched.live_pids t in
    check_int "live_count" (List.length live) (Sched.live_count t);
    List.iteri
      (fun k pid -> check_int "live_nth" pid (Sched.live_nth t k))
      live;
    match policy t with
    | Sched.Step pid as d ->
        picks := pid :: !picks;
        d
    | Sched.Halt -> Sched.Halt
  in
  let phase () =
    check_int "ten steps" 10 (Sched.run s ~policy:recording ~max_steps:10)
  in
  phase ();
  Sched.crash s ~pid:101;
  phase ();
  while Sched.runnable s ~pid:3 do
    ignore (Sched.step s ~pid:3)
  done;
  phase ();
  ignore (Sched.restart s ~pid:101 (spin 40));
  Sched.recycle s ~pid:3 (spin 40);
  phase ();
  Sched.dispose s;
  List.rev !picks

let sched_tests =
  [
    tc "spawn rejects duplicate pids" (fun () ->
        let s = Sched.create () in
        Sched.spawn s ~pid:1 (fun () -> ());
        Alcotest.check_raises "dup"
          (Invalid_argument "Sched.spawn: duplicate pid 1") (fun () ->
            Sched.spawn s ~pid:1 (fun () -> ())));
    tc "step unknown pid raises" (fun () ->
        let s = Sched.create () in
        Alcotest.check_raises "unknown" (Invalid_argument "Sched: unknown pid 9")
          (fun () -> ignore (Sched.step s ~pid:9)));
    tc "live_pids shrinks as fibers finish" (fun () ->
        let s = Sched.create () in
        Sched.spawn s ~pid:1 (fun () -> ());
        Sched.spawn s ~pid:2 (fun () -> Fiber.yield ());
        Alcotest.(check (list int)) "both" [ 1; 2 ] (Sched.live_pids s);
        ignore (Sched.step s ~pid:1);
        Alcotest.(check (list int)) "one" [ 2 ] (Sched.live_pids s));
    tc "crash removes a process from scheduling" (fun () ->
        let s = Sched.create () in
        Sched.spawn s ~pid:1 (fun () -> Fiber.yield ());
        Sched.crash s ~pid:1;
        check_bool "crashed" true (Sched.crashed s ~pid:1);
        check_bool "not live" true (Sched.live_pids s = []);
        Alcotest.check_raises "step crashed"
          (Invalid_argument "Sched.step: pid 1 has crashed") (fun () ->
            ignore (Sched.step s ~pid:1)));
    tc "round robin is fair" (fun () ->
        let s = Sched.create () in
        let counts = Array.make 3 0 in
        for pid = 0 to 2 do
          Sched.spawn s ~pid (fun () ->
              for _ = 1 to 10 do
                counts.(pid) <- counts.(pid) + 1;
                Fiber.yield ()
              done)
        done;
        ignore (Sched.run s ~policy:Sched.round_robin ~max_steps:15);
        check_bool "balanced" true
          (abs (counts.(0) - counts.(1)) <= 1 && abs (counts.(1) - counts.(2)) <= 1));
    tc "run halts when no fiber is live" (fun () ->
        let s = Sched.create () in
        Sched.spawn s ~pid:1 (fun () -> Fiber.yield ());
        let steps = Sched.run s ~policy:Sched.round_robin ~max_steps:100 in
        check_int "steps" 2 steps);
    tc "scripted policy follows the script" (fun () ->
        let s = Sched.create () in
        let log = ref [] in
        for pid = 1 to 2 do
          Sched.spawn s ~pid (fun () ->
              log := pid :: !log;
              Fiber.yield ();
              log := pid :: !log)
        done;
        ignore
          (Sched.run s ~policy:(Sched.scripted [ 2; 1; 1; 2 ]) ~max_steps:100);
        Alcotest.(check (list int)) "order" [ 2; 1; 1; 2 ] (List.rev !log));
    tc "restart revives a crashed pid with a bumped incarnation" (fun () ->
        let m = Obs.Metrics.create () in
        let s = Sched.create ~metrics:m () in
        let lives = ref [] in
        Sched.spawn s ~pid:1 (fun () ->
            lives := "first" :: !lives;
            Fiber.yield ());
        check_int "fresh pid" 0 (Sched.incarnation s ~pid:1);
        Sched.crash s ~pid:1;
        let inc = Sched.restart s ~pid:1 (fun () -> lives := "second" :: !lives) in
        check_int "bumped" 1 inc;
        check_int "readable" 1 (Sched.incarnation s ~pid:1);
        check_bool "no longer crashed" true (not (Sched.crashed s ~pid:1));
        ignore (Sched.run s ~policy:Sched.round_robin ~max_steps:100);
        check_bool "the new body ran" true (!lives = [ "second" ]);
        check_int "counted" 1 (Obs.Metrics.counter m "sched.restarts");
        (* crash + restart again: incarnations only ever grow *)
        Sched.crash s ~pid:1;
        check_int "second restart" 2
          (Sched.restart s ~pid:1 (fun () -> ())));
    tc "restart demands a crashed pid" (fun () ->
        let s = Sched.create () in
        Sched.spawn s ~pid:1 (fun () -> Fiber.yield ());
        Alcotest.check_raises "running"
          (Invalid_argument "Sched.restart: pid 1 has not crashed") (fun () ->
            ignore (Sched.restart s ~pid:1 (fun () -> ())));
        Alcotest.check_raises "unknown" (Invalid_argument "Sched: unknown pid 9")
          (fun () -> ignore (Sched.restart s ~pid:9 (fun () -> ()))));
    tc "recycle reuses a finished slot without bumping the incarnation"
      (fun () ->
        let m = Obs.Metrics.create () in
        let s = Sched.create ~metrics:m () in
        let log = ref [] in
        Sched.spawn s ~pid:1 (fun () -> log := "first" :: !log);
        ignore (Sched.step s ~pid:1);
        Sched.recycle s ~pid:1 (fun () -> log := "second" :: !log);
        Alcotest.(check (list int)) "live again" [ 1 ] (Sched.live_pids s);
        check_int "no incarnation bump" 0 (Sched.incarnation s ~pid:1);
        ignore (Sched.step s ~pid:1);
        Alcotest.(check (list string)) "both occupants ran"
          [ "second"; "first" ] !log;
        check_int "counted" 1 (Obs.Metrics.counter m "sched.recycles"));
    tc "recycle demands a finished, never-crashed pid" (fun () ->
        let s = Sched.create () in
        Sched.spawn s ~pid:1 (fun () -> Fiber.yield ());
        Alcotest.check_raises "still runnable"
          (Invalid_argument "Sched.recycle: pid 1 has not finished") (fun () ->
            Sched.recycle s ~pid:1 (fun () -> ()));
        Sched.spawn s ~pid:2 (fun () -> ());
        ignore (Sched.step s ~pid:2);
        Sched.crash s ~pid:2;
        Alcotest.check_raises "crashed"
          (Invalid_argument "Sched.recycle: pid 2 has crashed") (fun () ->
            Sched.recycle s ~pid:2 (fun () -> ())));
    tc "coin recorded in trace" (fun () ->
        let s = Sched.create ~seed:13L () in
        Sched.spawn s ~pid:1 (fun () -> ignore (Sched.coin s ~proc:1));
        ignore (Sched.step s ~pid:1);
        match Trace.coins (Sched.trace s) with
        | [ (_, 1, v) ] -> check_bool "bit" true (v = 0 || v = 1)
        | _ -> Alcotest.fail "expected one coin");
    tc "same seed, same coins" (fun () ->
        let flips seed =
          let s = Sched.create ~seed () in
          List.init 20 (fun _ -> Core.Rng.coin (Sched.rng s))
        in
        Alcotest.(check (list int)) "deterministic" (flips 5L) (flips 5L));
    tc "live_nth indexes live_pids and rejects out-of-range indices"
      (fun () ->
        let s = Sched.create () in
        List.iter
          (fun pid -> Sched.spawn s ~pid (fun () -> Fiber.yield ()))
          [ 9; 2; 5 ];
        Sched.crash s ~pid:5;
        Alcotest.(check (list int)) "pids" [ 2; 5; 9 ] (Sched.pids s);
        check_int "a never-spawned pid has incarnation 0" 0
          (Sched.incarnation s ~pid:4);
        check_bool "a never-spawned pid has not crashed" false
          (Sched.crashed s ~pid:4);
        check_int "live_count" 2 (Sched.live_count s);
        Alcotest.(check (list int)) "in pid order" [ 2; 9 ]
          [ Sched.live_nth s 0; Sched.live_nth s 1 ];
        List.iter
          (fun k ->
            Alcotest.check_raises (Printf.sprintf "k = %d" k)
              (Invalid_argument "Sched.live_nth: index out of range")
              (fun () -> ignore (Sched.live_nth s k)))
          [ -1; 2 ];
        Sched.dispose s;
        check_int "nothing live after dispose" 0 (Sched.live_count s));
    tc "policies pick a pinned pid sequence" (fun () ->
        let seen = pinned_schedule (Sched.random_policy (Rng.create 7L)) in
        Alcotest.(check (list int)) "random_policy"
          [ 3; 3; 3; 100; 100; 0; 7; 101; 0; 100; 7; 7; 7; 7; 7; 0; 7; 100;
            7; 7; 7; 7; 7; 7; 100; 100; 7; 0; 0; 7; 100; 0; 100; 101; 0; 7;
            7; 7; 3; 7 ]
          seen;
        Alcotest.(check (list int)) "round_robin"
          [ 0; 3; 7; 100; 101; 0; 3; 7; 100; 101; 7; 100; 0; 3; 100; 0; 7;
            100; 0; 7; 100; 0; 7; 100; 0; 7; 100; 0; 7; 100; 0; 3; 7; 100;
            101; 0; 3; 7; 100; 101 ]
          (pinned_schedule Sched.round_robin));
  ]

(* ----- allocation ceilings ------------------------------------------------------ *)

(* Ceilings on the scheduler's per-step allocation: an RNG draw boxes no
   state, and a decision builds no list of live pids. *)
let alloc_tests =
  [
    tc "Rng.int and Rng.bool allocate nothing" (fun () ->
        let g = Rng.create 3L in
        Alloc.at_most "Rng.int per call" 0.01
          (Alloc.words_per_call (fun () -> Rng.int g 1000));
        Alloc.at_most "Rng.bool per call" 0.01
          (Alloc.words_per_call (fun () -> Rng.bool g)));
    tc "Rng.float allocates only its result" (fun () ->
        let g = Rng.create 3L in
        Alloc.at_most "Rng.float per call" 2.
          (Alloc.words_per_call (fun () -> Rng.float g)));
    tc "a random_policy decision allocates only its Step box" (fun () ->
        let s = Sched.create ~metrics:(Obs.Metrics.create ()) () in
        for pid = 0 to 8 do
          Sched.spawn s ~pid (fun () -> Fiber.yield ())
        done;
        let policy = Sched.random_policy (Rng.create 3L) in
        Alloc.at_most "random_policy per call" 4.
          (Alloc.words_per_call (fun () -> policy s));
        Sched.dispose s);
  ]

(* ----- fiber lifecycle: dispose, restart, memory ------------------------------- *)

(* a fiber body whose [Fun.protect] counts how often its stack unwinds —
   the one way a test can watch {!Fiber.discard} happen *)
let unwinding unwound () =
  Fun.protect
    ~finally:(fun () -> incr unwound)
    (fun () ->
      while true do
        Fiber.yield ()
      done)

let vm_rss_kb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> Alcotest.fail "no VmRSS line in /proc/self/status"
        | Some l when String.starts_with ~prefix:"VmRSS:" l ->
            Scanf.sscanf l "VmRSS: %d kB" Fun.id
        | Some _ -> go ()
      in
      go ())

let lifecycle_tests =
  [
    tc "dispose ends suspended and unstarted fibers, keeps the rest"
      (fun () ->
        let m = Obs.Metrics.create () in
        let s = Sched.create ~metrics:m () in
        let unwound = ref 0 in
        Sched.spawn s ~pid:1 (unwinding unwound);
        Sched.spawn s ~pid:2 (fun () -> ());
        Sched.spawn s ~pid:3 (fun () -> failwith "boom");
        Sched.spawn s ~pid:4 (fun () -> Alcotest.fail "never started");
        Sched.spawn s ~pid:5 (fun () -> Fiber.yield ());
        Sched.crash s ~pid:5;
        ignore (Sched.step s ~pid:1);
        ignore (Sched.step s ~pid:2);
        (try ignore (Sched.step s ~pid:3) with Failure _ -> ());
        let before = Obs.Metrics.snapshot m in
        Sched.dispose s;
        check_int "the suspended fiber unwound once" 1 !unwound;
        Alcotest.(check (list int)) "nothing is live" [] (Sched.live_pids s);
        List.iter
          (fun pid ->
            check_bool (Printf.sprintf "p%d not runnable" pid) false
              (Sched.runnable s ~pid);
            Alcotest.check_raises (Printf.sprintf "step p%d" pid)
              (Invalid_argument
                 (Printf.sprintf "Sched.step: pid %d is not runnable" pid))
              (fun () -> ignore (Sched.step s ~pid)))
          [ 1; 4 ];
        check_bool "finished stays finished" true
          (Sched.status s ~pid:2 = Fiber.Finished);
        check_bool "failed keeps its exception" true
          (match Sched.status s ~pid:3 with
          | Fiber.Failed (Failure msg) -> msg = "boom"
          | _ -> false);
        check_bool "crashed stays crashed" true (Sched.crashed s ~pid:5);
        check_bool "no counter or histogram moved" true
          (Obs.Metrics.snapshot m = before);
        Sched.dispose s;
        check_int "a second dispose does nothing" 1 !unwound);
    tc "restart discards the crashed fiber it replaces" (fun () ->
        let s = Sched.create () in
        let unwound = ref 0 in
        Sched.spawn s ~pid:1 (unwinding unwound);
        ignore (Sched.step s ~pid:1);
        Sched.crash s ~pid:1;
        check_int "a crash alone frees nothing" 0 !unwound;
        ignore (Sched.restart s ~pid:1 (fun () -> ()));
        check_int "the crashed fiber unwound" 1 !unwound;
        ignore (Sched.step s ~pid:1);
        check_bool "the new fiber ran" true
          (Sched.status s ~pid:1 = Fiber.Finished));
    tc "disposed runs keep memory flat" (fun () ->
        (* a suspended fiber's stack outlives a dropped continuation on
           OCaml 5, so without dispose this loop grows RSS by ~30 MB *)
        if Sys.file_exists "/proc/self/status" then begin
          let m = Obs.Metrics.create () in
          let run () =
            let s = Sched.create ~metrics:m () in
            Sched.spawn s ~pid:1 (fun () ->
                while true do
                  Fiber.yield ()
                done);
            ignore (Sched.step s ~pid:1);
            Sched.dispose s
          in
          run ();
          Gc.full_major ();
          let before = vm_rss_kb () in
          for _ = 1 to 50_000 do
            run ()
          done;
          Gc.full_major ();
          let grown = vm_rss_kb () - before in
          if grown >= 8 * 1024 then
            Alcotest.failf "50k disposed runs grew VmRSS by %d kB" grown
        end);
  ]

(* ----- trace ------------------------------------------------------------------- *)

(* One seeded run of three processes, each invoking, linearizing, flipping
   a coin, yielding and responding four times, recorded by a scheduler
   made with [?sink]; the trace and the run's own registry. *)
let recorded_run ?sink () =
  let metrics = Obs.Metrics.create () in
  let s = Sched.create ~seed:7L ~metrics ?sink () in
  let tr = Sched.trace s in
  let client proc () =
    for i = 1 to 4 do
      let kind = if i mod 2 = 0 then Op.Write (Core.Value.Int i) else Op.Read in
      let op_id = Trace.invoke tr ~proc ~obj:"R" ~kind in
      Fiber.yield ();
      Trace.linearize tr ~op_id;
      ignore (Sched.coin s ~proc);
      Fiber.yield ();
      Trace.respond tr ~op_id ~result:(Some (Core.Value.Int proc))
    done;
    Trace.note tr ~tag:"done" ~text:(string_of_int proc)
  in
  List.iter (fun pid -> Sched.spawn s ~pid (client pid)) [ 1; 2; 3 ];
  let policy = Sched.random_policy (Rng.create 11L) in
  ignore (Sched.run s ~policy ~max_steps:1_000);
  Sched.dispose s;
  (tr, metrics)

let trace_tests =
  [
    tc "a sink receives every entry in order and the trace keeps none"
      (fun () ->
        let render es =
          List.map (fun e -> Core.Json.to_string (Trace.entry_json e)) es
        in
        let kept, m_kept = recorded_run () in
        let sunk = ref [] in
        let streamed, m_sunk =
          recorded_run ~sink:(fun e -> sunk := e :: !sunk) ()
        in
        check_int "entries recorded" 51 (List.length (Trace.entries kept));
        Alcotest.(check (list string))
          "the sink's entries are the kept trace's"
          (render (Trace.entries kept))
          (render (List.rev !sunk));
        check_int "no entries kept" 0 (List.length (Trace.entries streamed));
        check_int "no history kept" 0
          (Core.Hist.length (Trace.history streamed));
        List.iter
          (fun name ->
            check_int name
              (Obs.Metrics.counter m_kept name)
              (Obs.Metrics.counter m_sunk name))
          [ "trace.invokes"; "trace.responds" ];
        check_int "ops recorded" 12 (Obs.Metrics.counter m_sunk "trace.invokes");
        check_bool "op.latency.sim summaries equal" true
          (Obs.Metrics.summary m_kept "op.latency.sim"
           = Obs.Metrics.summary m_sunk "op.latency.sim"
          && Obs.Metrics.summary m_sunk "op.latency.sim" <> None));
    tc "invoke/respond build a history" (fun () ->
        let tr = Trace.create () in
        let id = Trace.invoke tr ~proc:1 ~obj:"R" ~kind:Op.Read in
        Trace.respond tr ~op_id:id ~result:(Some (Core.Value.Int 0));
        let h = Trace.history tr in
        check_int "events" 2 (Core.Hist.length h);
        match Core.Hist.ops h with
        | [ o ] ->
            check_bool "complete" true (Op.is_complete o);
            check_bool "result" true (o.Op.result = Some (Core.Value.Int 0))
        | _ -> Alcotest.fail "one op expected");
    tc "op ids are fresh" (fun () ->
        let tr = Trace.create () in
        let a = Trace.invoke tr ~proc:1 ~obj:"R" ~kind:Op.Read in
        let b = Trace.invoke tr ~proc:2 ~obj:"R" ~kind:Op.Read in
        check_bool "fresh" true (a <> b));
    tc "times strictly increase" (fun () ->
        let tr = Trace.create () in
        ignore (Trace.invoke tr ~proc:1 ~obj:"R" ~kind:Op.Read);
        Trace.linearize tr ~op_id:1;
        Trace.coin tr ~proc:1 ~value:0;
        Trace.note tr ~tag:"t" ~text:"x";
        let ts = List.map Trace.entry_time (Trace.entries tr) in
        let rec increasing = function
          | a :: (b :: _ as rest) -> a < b && increasing rest
          | _ -> true
        in
        check_bool "increasing" true (increasing ts));
    tc "lin_time finds the linearization point" (fun () ->
        let tr = Trace.create () in
        let id = Trace.invoke tr ~proc:1 ~obj:"R" ~kind:Op.Read in
        Trace.linearize tr ~op_id:id;
        Trace.respond tr ~op_id:id ~result:None;
        match Trace.lin_time tr ~op_id:id with
        | Some t ->
            let h = Trace.history tr in
            let o = List.hd (Core.Hist.ops h) in
            check_bool "within interval" true
              (o.Op.invoked < t && t < Option.get o.Op.responded)
        | None -> Alcotest.fail "no lin point");
    tc "history ignores annotations" (fun () ->
        let tr = Trace.create () in
        Trace.note tr ~tag:"x" ~text:"y";
        Trace.coin tr ~proc:1 ~value:1;
        check_int "empty" 0 (Core.Hist.length (Trace.history tr)));
  ]

let suite =
  [
    ("simkit.rng", rng_tests);
    ("simkit.fiber", fiber_tests);
    ("simkit.sched", sched_tests);
    ("simkit.alloc", alloc_tests);
    ("simkit.lifecycle", lifecycle_tests);
    ("simkit.trace", trace_tests);
  ]
