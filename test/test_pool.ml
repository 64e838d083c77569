(* Simkit.Pool: the parked domain pool behind every `-j N` run battery
   (experiments, chaos, fleet), and the determinism contract the battery
   relies on (reports and merged metrics independent of the degree of
   parallelism). *)

module Pool = Simkit.Pool

let tc name f = Alcotest.test_case name `Quick f

(* [Pool.fold_runs] with each task's registry handed through: the results
   collected into an array indexed by task *)
let map_runs ~jobs ~metrics n f =
  Pool.fold_runs ~jobs ~metrics n ~init:[] ~fold:(fun acc v -> v :: acc) f
  |> List.rev |> Array.of_list

let map ~jobs n f =
  map_runs ~jobs ~metrics:(Obs.Metrics.create ()) n (fun ~metrics:_ i -> f i)

(* ----- the fold, collected ---------------------------------------------------- *)

let test_all_tasks_once () =
  List.iter
    (fun jobs ->
      let n = 100 in
      let hits = Array.init n (fun _ -> Atomic.make 0) in
      let out =
        map ~jobs n (fun i ->
            Atomic.incr hits.(i);
            i * i)
      in
      Array.iteri
        (fun i c ->
          Alcotest.(check int)
            (Printf.sprintf "jobs=%d: task %d ran exactly once" jobs i)
            1 (Atomic.get c))
        hits;
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d: results indexed by task" jobs)
        (Array.init n (fun i -> i * i))
        out)
    [ 1; 2; 4; 7 ]

let test_degenerate () =
  Alcotest.(check (array int)) "n=0" [||]
    (map ~jobs:4 0 (fun _ -> Alcotest.fail "n=0 ran a task"));
  Alcotest.(check (array int)) "n=1" [| 7 |] (map ~jobs:4 1 (fun _ -> 7));
  Alcotest.(check bool)
    "n=1 runs on the calling domain" true
    ((map ~jobs:4 1 (fun _ -> Domain.self ())).(0) = Domain.self ());
  Alcotest.(check (array int))
    "jobs=1 runs in index order on the calling domain"
    [| 0; 1; 2; 3 |]
    (let order = ref [] in
     let out = map ~jobs:1 4 (fun i -> order := i :: !order; i) in
     Alcotest.(check (list int)) "index order" [ 3; 2; 1; 0 ] !order;
     out);
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "jobs=%d: negative task count rejected" jobs)
        (Invalid_argument "Pool.fold_runs: negative task count") (fun () ->
          ignore (map ~jobs (-1) (fun i -> i))))
    [ 1; 2 ]

exception Boom of int

let test_exception_propagation () =
  List.iter
    (fun jobs ->
      let raised =
        try
          ignore (map ~jobs 50 (fun i -> if i = 17 then raise (Boom i)));
          None
        with Boom i -> Some i
      in
      Alcotest.(check (option int))
        (Printf.sprintf "jobs=%d: task 17's exception re-raised" jobs)
        (Some 17) raised)
    [ 1; 4 ];
  (* several failures: the lowest-index one wins, whatever the schedule *)
  let raised =
    try
      ignore
        (map ~jobs:1 50 (fun i ->
             if i mod 10 = 3 then raise (Boom i)));
      None
    with Boom i -> Some i
  in
  Alcotest.(check (option int)) "lowest-index failure wins" (Some 3) raised;
  (* large n forces chunked claiming (n > jobs * 8, so each CAS claims a
     run of indices): the lowest-index failure must still win even when
     the failing indices land mid-chunk on different domains, and however
     far the caller has run ahead of the workers *)
  List.iter
    (fun jobs ->
      for rep = 1 to 200 do
        let raised =
          try
            ignore
              (map ~jobs 400 (fun i ->
                   if i mod 25 = 11 then raise (Boom i)));
            None
          with Boom i -> Some i
        in
        Alcotest.(check (option int))
          (Printf.sprintf "jobs=%d rep %d: lowest-index failure re-raised" jobs
             rep)
          (Some 11) raised
      done)
    [ 2; 4 ]

(* the re-raise carries the failing task's own backtrace: its innermost
   frame is the [raise] in this file, not a re-raise inside the pool *)
let test_backtrace_kept () =
  let was = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  Fun.protect ~finally:(fun () -> Printexc.record_backtrace was) (fun () ->
      match map ~jobs:2 100 (fun i -> if i = 40 then raise (Boom i)) with
      | _ -> Alcotest.fail "exception swallowed"
      | exception Boom i ->
          let innermost =
            match Printexc.(backtrace_slots (get_raw_backtrace ())) with
            | Some slots when Array.length slots > 0 ->
                Option.map
                  (fun l -> Filename.basename l.Printexc.filename)
                  (Printexc.Slot.location slots.(0))
            | _ -> None
          in
          Alcotest.(check int) "index" 40 i;
          Alcotest.(check (option string))
            "raised in the task" (Some "test_pool.ml") innermost)

(* ----- parked workers: nesting, concurrent callers, reuse -------------------- *)

let test_nested () =
  let row i = Array.init 5 (fun j -> (10 * i) + j) in
  let out =
    map ~jobs:2 8 (fun i -> map ~jobs:2 5 (fun j -> (10 * i) + j))
  in
  Alcotest.(check (array (array int)))
    "nested map returns the jobs=1 array" (Array.init 8 row) out

let test_concurrent_callers () =
  let call k () = map ~jobs:2 300 (fun i -> (k * 1000) + i) in
  let doms = List.map (fun k -> Domain.spawn (call k)) [ 1; 2 ] in
  List.iter2
    (fun k d ->
      Alcotest.(check (array int))
        (Printf.sprintf "caller %d" k)
        (Array.init 300 (fun i -> (k * 1000) + i))
        (Domain.join d))
    [ 1; 2 ] doms

let test_back_to_back () =
  for c = 1 to 1000 do
    (* every 100th call raises: a worker survives its job's exception *)
    let boom = c mod 100 = 0 in
    match
      map ~jobs:2 16 (fun i -> if boom && i = 9 then raise (Boom i) else c + i)
    with
    | out ->
        if boom || out <> Array.init 16 (fun i -> c + i) then
          Alcotest.failf "call %d: wrong outcome" c
    | exception Boom _ -> if not boom then Alcotest.failf "call %d: stray failure" c
  done

(* ----- per-run registries, merged in run order --------------------------------- *)

let test_map_runs_merge () =
  let runs = 20 in
  let record ~metrics i =
    Obs.Metrics.incr metrics ~by:(i + 1) "pool.test.counter";
    Obs.Metrics.observe metrics "pool.test.hist" (float_of_int i);
    i
  in
  let merged jobs =
    let m = Obs.Metrics.create () in
    let out = map_runs ~jobs ~metrics:m runs record in
    Alcotest.(check (array int))
      (Printf.sprintf "jobs=%d: results" jobs)
      (Array.init runs (fun i -> i))
      out;
    m
  in
  let expect_counter = runs * (runs + 1) / 2 in
  let m1 = merged 1 and m4 = merged 4 in
  List.iter
    (fun (label, m) ->
      let s = Obs.Metrics.snapshot m in
      Alcotest.(check int)
        (label ^ ": counters sum across runs")
        expect_counter
        (List.assoc "pool.test.counter" s.Obs.Metrics.counters);
      match List.assoc_opt "pool.test.hist" s.Obs.Metrics.histograms with
      | None -> Alcotest.fail (label ^ ": histogram missing")
      | Some h ->
          Alcotest.(check int) (label ^ ": hist count") runs h.Obs.Metrics.count;
          Alcotest.(check (float 1e-9))
            (label ^ ": hist sum")
            (float_of_int (runs * (runs - 1) / 2))
            h.Obs.Metrics.sum)
    [ ("jobs=1", m1); ("jobs=4", m4) ];
  Alcotest.(check bool)
    "registries equal across jobs" true (Obs.Metrics.equal m1 m4)

(* registries are folded as tasks finish, so a failure at task k leaves
   the target holding exactly tasks 0..k-1 — never a later task that
   happened to finish first, and not nothing *)
let test_map_runs_failure () =
  let n = 400 in
  let record ~metrics i =
    Obs.Metrics.incr metrics ~by:(i + 1) "pool.test.counter";
    Obs.Metrics.set_gauge metrics "pool.test.gauge" (float_of_int i);
    Obs.Metrics.observe metrics "pool.test.hist" (float_of_int i);
    i
  in
  List.iter
    (fun k ->
      let expect = Obs.Metrics.create () in
      ignore (map_runs ~jobs:1 ~metrics:expect k record);
      List.iter
        (fun jobs ->
          for rep = 1 to (if jobs = 1 then 1 else 20) do
            (* task k raises, or the fold step applied to its value does *)
            List.iter
              (fun in_fold ->
                let m = Obs.Metrics.create () in
                let raised =
                  match
                    Pool.fold_runs ~jobs ~metrics:m n ~init:()
                      ~fold:(fun () i -> if in_fold && i = k then raise (Boom i))
                      (fun ~metrics i ->
                        if (not in_fold) && i = k then raise (Boom i)
                        else record ~metrics i)
                  with
                  | () -> None
                  | exception Boom i -> Some i
                in
                let label =
                  Printf.sprintf "k=%d jobs=%d rep %d in_fold=%b" k jobs rep
                    in_fold
                in
                Alcotest.(check (option int)) (label ^ ": task k re-raised")
                  (Some k) raised;
                Alcotest.(check bool) (label ^ ": target holds tasks 0..k-1")
                  true
                  (Obs.Metrics.equal m expect))
              [ false; true ]
          done)
        [ 1; 4 ])
    [ 0; 11; 250 ]

(* ----- the fold itself -------------------------------------------------------- *)

let spin k =
  let x = ref 0 in
  for j = 1 to k do
    x := Sys.opaque_identity (!x + j)
  done;
  !x

(* Lower indices do more busy work, so higher ones finish first and wait
   among the tasks that ran ahead.  The fold must still see 0, 1, ...,
   n-1, each once, and never run on two domains at once (it spins, so an
   overlap has time to show).  No task waits on another: on a 1-core
   host Pool spawns no worker, and such a task would hang. *)
let test_fold_order () =
  let n = 400 in
  List.iter
    (fun jobs ->
      let inside = Atomic.make false in
      let overlapped = Atomic.make false and misordered = Atomic.make false in
      let folded =
        Pool.fold_runs ~jobs ~metrics:(Obs.Metrics.create ()) n ~init:0
          ~fold:(fun expect i ->
            if Atomic.exchange inside true then Atomic.set overlapped true;
            if i <> expect then Atomic.set misordered true;
            ignore (spin 2_000);
            Atomic.set inside false;
            expect + 1)
          (fun ~metrics:_ i ->
            ignore (spin ((n - i) * 200));
            i)
      in
      let label = Printf.sprintf "jobs=%d: " jobs in
      Alcotest.(check int) (label ^ "one fold step per task") n folded;
      Alcotest.(check bool)
        (label ^ "folded in index order, once each") false
        (Atomic.get misordered);
      Alcotest.(check bool)
        (label ^ "never on two domains at once") false
        (Atomic.get overlapped))
    [ 1; 2; 4 ]

(* ----- the minor heap --------------------------------------------------------- *)

let test_runparam_rule () =
  List.iter
    (fun (v, want) ->
      Alcotest.(check bool) (Printf.sprintf "%S" v) want
        (Pool.runparam_sets_minor_heap v))
    [
      ("", false);
      ("s=64k", true);
      ("s=256k", true);
      ("v=0x400", false);
      ("b,s=32k", true);
      ("v=0x400,s=1M,b", true);
      ("s", false);
      ("os=1", false);
      ("b,v=0x400", false);
    ]

(* Every domain that runs a task of a fold — the caller and the workers —
   runs Pool.minor_heap_words, and the caller keeps that size after the
   call.  Under an s= entry in OCAMLRUNPARAM or CAMLRUNPARAM, each domain
   keeps the size it started the fold with instead: 262,144 words for the
   caller, which the test sets before each fold, and a fresh domain's size
   for a worker.  The test restores the caller's size when it ends, so it
   neither depends on nor leaks into the order of the tests.  Where the
   pool has a worker, task 0, if the caller runs it, waits up to 10 s for
   a task to start elsewhere, so a worker joins.  Where default_jobs () =
   1 (one core, or an affinity mask of one) the pool spawns none
   (max_workers = 0), every task runs on the caller, and the test says
   so. *)
let test_every_domain_minor_heap () =
  let heap () = (Gc.get ()).Gc.minor_heap_size in
  let set_heap words = Gc.set { (Gc.get ()) with Gc.minor_heap_size = words } in
  let env_sets v =
    Option.fold ~none:false ~some:Pool.runparam_sets_minor_heap
      (Sys.getenv_opt v)
  in
  let fixed = env_sets "OCAMLRUNPARAM" || env_sets "CAMLRUNPARAM" in
  let caller = Domain.self () and restore = heap () in
  let spawned = Domain.join (Domain.spawn heap) in
  let has_worker = Pool.default_jobs () > 1 in
  let fold ~jobs =
    let elsewhere = Atomic.make false in
    map ~jobs 16 (fun i ->
        if Domain.self () <> caller then Atomic.set elsewhere true
        else if jobs > 1 && i = 0 && has_worker then begin
          let t0 = Unix.gettimeofday () in
          while
            (not (Atomic.get elsewhere)) && Unix.gettimeofday () -. t0 < 10.
          do
            Unix.sleepf 0.001
          done
        end;
        (Domain.self (), heap ()))
  in
  Fun.protect
    ~finally:(fun () -> set_heap restore)
    (fun () ->
      List.iter
        (fun jobs ->
          set_heap 262_144;
          let seen = fold ~jobs in
          let want d =
            if not fixed then Pool.minor_heap_words
            else if d = caller then 262_144
            else spawned
          in
          Array.iteri
            (fun i (d, size) ->
              Alcotest.(check int)
                (Printf.sprintf "jobs=%d: task %d ran on %s: its minor heap"
                   jobs i
                   (if d = caller then "the caller" else "a worker"))
                (want d) size)
            seen;
          Alcotest.(check int)
            (Printf.sprintf "jobs=%d: the caller's minor heap after the call"
               jobs)
            (want caller) (heap ());
          if jobs > 1 && has_worker then
            Alcotest.(check bool) "some task ran on a worker" true
              (Array.exists (fun (d, _) -> d <> caller) seen))
        [ 1; 2 ]);
  if not has_worker then
    print_endline
      "default_jobs () = 1, so max_workers = 0: every task ran on the \
       caller and no worker's heap was checked"

(* ----- battery determinism --------------------------------------------------- *)

(* The guarantee `rlin experiments -j N` advertises: same ids, same
   pass/fail, same measured text, and the same metrics — wall-clock
   aside — whatever N is.  (The quick battery at -j 1 vs -j 4; each
   report carries its experiment's merged registry, so this also
   exercises the merge-in-run-order path end to end.) *)
let test_battery_independent_of_jobs () =
  let strip (r : Experiments.report) =
    ( r.Experiments.id,
      r.Experiments.pass,
      r.Experiments.measured,
      (* the report's wall clock varies run to run *)
      List.filter (fun (k, _) -> k <> "wall_ms") r.Experiments.metrics )
  in
  let only = Some [ "E1"; "E2"; "E5"; "E9"; "E11" ] in
  let seq = List.map strip (Experiments.all ~jobs:1 ?only ~quick:true ()) in
  let par = List.map strip (Experiments.all ~jobs:4 ?only ~quick:true ()) in
  List.iter2
    (fun (id1, p1, m1, k1) (id2, p2, m2, k2) ->
      Alcotest.(check string) "id" id1 id2;
      Alcotest.(check bool) (id1 ^ ": pass") p1 p2;
      Alcotest.(check string) (id1 ^ ": measured") m1 m2;
      List.iter2
        (fun (ka, va) (kb, vb) ->
          Alcotest.(check string) (id1 ^ ": metric name") ka kb;
          Alcotest.(check (float 1e-9)) (id1 ^ ": metric " ^ ka) va vb)
        k1 k2)
    seq par

let test_only_selection () =
  let ids rs = List.map (fun r -> r.Experiments.id) rs in
  Alcotest.(check (list string))
    "subset in battery order, case-insensitive"
    [ "E4"; "E8" ]
    (ids (Experiments.all ~only:[ "e8"; "E4" ] ~quick:true ()));
  Alcotest.check_raises "unknown id rejected"
    (Invalid_argument
       "Experiments: unknown id \"E99\" (know E1, E2, E3, E4, E5, E6, E7, \
        E8, E9, E10, E11, E12, E13, E14, E15)") (fun () ->
      ignore (Experiments.all ~only:[ "E99" ] ~quick:true ()))

let suite =
  [
    ( "simkit.pool",
      [
        tc "every task runs exactly once, results indexed" test_all_tasks_once;
        tc "degenerate sizes and jobs=1 ordering" test_degenerate;
        tc "exceptions cancel and re-raise deterministically"
          test_exception_propagation;
        tc "the re-raise keeps the task's backtrace" test_backtrace_kept;
        tc "a map nested in a task runs inline" test_nested;
        tc "two domains calling map at once both get their results"
          test_concurrent_callers;
        tc "1000 back-to-back jobs=2 calls reuse the parked workers"
          test_back_to_back;
        tc "map_runs merges per-run registries independent of jobs"
          test_map_runs_merge;
        tc "after task k fails, map_runs has merged exactly tasks 0..k-1"
          test_map_runs_failure;
        tc "the fold runs in index order, once per task, one domain at a time"
          test_fold_order;
        tc "an s= entry in OCAMLRUNPARAM keeps the runtime's minor heap"
          test_runparam_rule;
        tc
          "every domain that runs a task runs a 64k-word minor heap, the \
           caller included"
          test_every_domain_minor_heap;
      ] );
    ( "experiments.parallel",
      [
        tc "battery reports independent of -j" test_battery_independent_of_jobs;
        tc "--only selects in battery order" test_only_selection;
      ] );
  ]
