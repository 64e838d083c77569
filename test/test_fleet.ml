(* The fleet engine: sharding, the generational client pool, delivery
   batching, and the determinism contract (reports byte-identical across
   -j, batching verdict-neutral).  Configs are small — hundreds of ops —
   so the whole suite stays quick; E15 exercises the scale end. *)

let tc name f = Alcotest.test_case name `Quick f
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let faults =
  {
    Core.Faults.none with
    Core.Faults.drop = 0.05;
    duplicate = 0.02;
    delay = 0.05;
    delay_bound = 4;
  }

let small =
  {
    Core.Fleet.default with
    Core.Fleet.shards = 3;
    slots = 3;
    ops = 600;
    session_len = 3;
    keys = 32;
    faults;
    seed = 42L;
    sample = 3;
  }

let report_str r = Core.Json.to_string (Core.Fleet.report_json r)

(* the report minus its config echo: what must coincide when two
   different configs are required to behave identically *)
let behaviour_str r =
  Core.Json.to_string
    (Core.Json.List (List.map Core.Fleet.shard_json r.Core.Fleet.shards_r))

let shard_tests =
  [
    tc "shard_of_key is total and in range" (fun () ->
        for k = 0 to 999 do
          let s = Core.Fleet.shard_of_key ~shards:7 k in
          check_bool "in range" true (s >= 0 && s < 7);
          check_int "stable" s (Core.Fleet.shard_of_key ~shards:7 k)
        done);
    tc "ops_per_shard accounts for every op" (fun () ->
        List.iter
          (fun (shards, ops, keys) ->
            let c =
              { small with Core.Fleet.shards; ops; keys; sample = 0 }
            in
            let per = Core.Fleet.ops_per_shard c in
            check_int "shard count" shards (Array.length per);
            check_int "sums to ops" ops (Array.fold_left ( + ) 0 per))
          [ (1, 100, 16); (3, 600, 32); (8, 1000, 5); (4, 7, 64) ]);
    tc "validate rejects ill-formed configs" (fun () ->
        let rejects c =
          match Core.Fleet.validate c with
          | () -> Alcotest.fail "expected Invalid_argument"
          | exception Invalid_argument _ -> ()
        in
        rejects { small with Core.Fleet.shards = 0 };
        rejects { small with Core.Fleet.n = 1 };
        rejects { small with Core.Fleet.n = 90; slots = 20 };
        rejects { small with Core.Fleet.write_ratio = 1.5 };
        rejects { small with Core.Fleet.session_len = 0 };
        rejects { small with Core.Fleet.sample = -1 };
        (* Sw: node 0 is the writer client and cannot crash *)
        rejects
          {
            small with
            Core.Fleet.faults =
              { faults with Core.Faults.crash_at = [ (50, 0) ] };
          };
        (* a crashed majority is rejected per shard like everywhere else *)
        rejects
          {
            small with
            Core.Fleet.faults =
              { faults with Core.Faults.crash_at = [ (50, 1); (60, 2) ] };
          })
  ]

let determinism_tests =
  [
    tc "reports are byte-identical across -j" (fun () ->
        let r1 = Core.Fleet.run ~jobs:1 ~metrics:(Core.Metrics.create ()) small
        and r2 = Core.Fleet.run ~jobs:2 ~metrics:(Core.Metrics.create ()) small
        and r3 =
          Core.Fleet.run ~jobs:3 ~metrics:(Core.Metrics.create ()) small
        in
        Alcotest.(check string) "-j1 = -j2" (report_str r1) (report_str r2);
        Alcotest.(check string) "-j1 = -j3" (report_str r1) (report_str r3));
    tc "merged metrics are jobs-invariant" (fun () ->
        let counters jobs =
          let m = Core.Metrics.create () in
          ignore (Core.Fleet.run ~jobs ~metrics:m small);
          (Core.Metrics.snapshot m).Core.Metrics.counters
        in
        check_bool "counter multiset identical" true (counters 1 = counters 2));
    tc "disabled batching is inert whatever batch_max" (fun () ->
        (* batching is active only when window > 0 AND max > 1: with the
           window at 0 the batch_max knob must not perturb a single
           delivery draw *)
        let off1 =
          Core.Fleet.run ~metrics:(Core.Metrics.create ())
            { small with Core.Fleet.batch_window = 0; batch_max = 1 }
        and off8 =
          Core.Fleet.run ~metrics:(Core.Metrics.create ())
            { small with Core.Fleet.batch_window = 0; batch_max = 8 }
        and window_only =
          Core.Fleet.run ~metrics:(Core.Metrics.create ())
            { small with Core.Fleet.batch_window = 8; batch_max = 1 }
        in
        Alcotest.(check string) "batch_max 1 = 8 when window 0"
          (behaviour_str off1) (behaviour_str off8);
        Alcotest.(check string) "window without max is off too"
          (behaviour_str off1)
          (behaviour_str window_only));
  ]

let engine_tests =
  [
    tc "batching preserves verdicts and amortizes delivery" (fun () ->
        let unbatched =
          Core.Fleet.run ~metrics:(Core.Metrics.create ()) small
        in
        let batched =
          Core.Fleet.run ~metrics:(Core.Metrics.create ())
            { small with Core.Fleet.batch_window = 8; batch_max = 8 }
        in
        check_bool "unbatched completed" true unbatched.Core.Fleet.completed;
        check_bool "batched completed" true batched.Core.Fleet.completed;
        check_int "no unbatched check failures" 0
          unbatched.Core.Fleet.total_fails;
        check_int "no batched check failures" 0 batched.Core.Fleet.total_fails;
        check_int "same ops" unbatched.Core.Fleet.total_ops
          batched.Core.Fleet.total_ops;
        check_int "same sessions" unbatched.Core.Fleet.total_sessions
          batched.Core.Fleet.total_sessions;
        check_bool "fewer delivery attempts" true
          (batched.Core.Fleet.total_attempts
          < unbatched.Core.Fleet.total_attempts);
        check_bool "coalescing happened" true
          (batched.Core.Fleet.total_coalesced > 0);
        check_bool "attempts/op ordering" true
          (Core.Fleet.attempts_per_op batched
          < Core.Fleet.attempts_per_op unbatched));
    tc "generational pool: one-op sessions recycle every slot" (fun () ->
        let c = { small with Core.Fleet.session_len = 1; sample = 0 } in
        let r = Core.Fleet.run ~metrics:(Core.Metrics.create ()) c in
        check_bool "completed" true r.Core.Fleet.completed;
        (* every op is its own client session… *)
        check_int "sessions = ops" r.Core.Fleet.total_ops
          r.Core.Fleet.total_sessions;
        (* …and all but each slot's first occupant arrived via recycle *)
        let recycles =
          List.fold_left
            (fun a s -> a + s.Core.Fleet.recycles)
            0 r.Core.Fleet.shards_r
        in
        check_int "recycles = sessions - first occupants"
          (r.Core.Fleet.total_sessions
          - (c.Core.Fleet.shards * c.Core.Fleet.slots))
          recycles);
    tc "sampled shards stream-check clean" (fun () ->
        let r = Core.Fleet.run ~metrics:(Core.Metrics.create ()) small in
        check_bool "segments retired" true (r.Core.Fleet.total_segments > 0);
        check_int "no failures" 0 r.Core.Fleet.total_fails;
        List.iter
          (fun s ->
            check_bool "sampled iff below the sample count"
              (s.Core.Fleet.index < small.Core.Fleet.sample)
              s.Core.Fleet.sampled)
          r.Core.Fleet.shards_r);
    tc "the checker sees every sampled op at -j 1 and -j 2" (fun () ->
        (* the sink hands each event over as it is recorded and no drain
           runs at the end, so an event the checker never saw would show
           as a shard whose verdicts cover fewer ops than it ran *)
        let c = { small with Core.Fleet.sample = 2 } in
        List.iter
          (fun jobs ->
            let r = Core.Fleet.run ~jobs ~metrics:(Core.Metrics.create ()) c in
            check_bool "completed" true r.Core.Fleet.completed;
            List.iter
              (fun s ->
                let label what =
                  Printf.sprintf "-j %d shard %d: %s" jobs s.Core.Fleet.index
                    what
                in
                if s.Core.Fleet.sampled then
                  check_int (label "verdict ops") s.Core.Fleet.shard_ops
                    (s.Core.Fleet.decided_ops + s.Core.Fleet.undecided_ops)
                else begin
                  check_int (label "decided") 0 s.Core.Fleet.decided_ops;
                  check_int (label "undecided") 0 s.Core.Fleet.undecided_ops
                end)
              r.Core.Fleet.shards_r)
          [ 1; 2 ]);
    tc "mwabd fleet under crash + recovery completes clean" (fun () ->
        let c =
          {
            small with
            Core.Fleet.proto = Core.Fleet.Mw;
            slots = 4;
            ops = 400;
            faults =
              {
                faults with
                Core.Faults.crash_at = [ (300, 2) ];
                recover_at = [ (700, 2) ];
              };
          }
        in
        let r1 = Core.Fleet.run ~jobs:1 ~metrics:(Core.Metrics.create ()) c in
        let r2 = Core.Fleet.run ~jobs:2 ~metrics:(Core.Metrics.create ()) c in
        check_bool "completed" true r1.Core.Fleet.completed;
        check_int "no failures" 0 r1.Core.Fleet.total_fails;
        check_int "all ops ran" 400 r1.Core.Fleet.total_ops;
        Alcotest.(check string) "deterministic" (report_str r1) (report_str r2));
    tc "abd fleet rides out a replica crash + recovery" (fun () ->
        let c =
          {
            small with
            Core.Fleet.faults =
              {
                faults with
                Core.Faults.crash_at = [ (300, 2) ];
                recover_at = [ (700, 2) ];
              };
          }
        in
        let r = Core.Fleet.run ~metrics:(Core.Metrics.create ()) c in
        check_bool "completed" true r.Core.Fleet.completed;
        check_int "no failures" 0 r.Core.Fleet.total_fails;
        check_int "all ops ran" 600 r.Core.Fleet.total_ops);
  ]

(* A scheduler step allocates only what the protocol allocates: 37.6
   minor words per step here (38.3 while the trace buffered its entries
   for a periodic drain, 39.6 while an [Ipset] probe returned a tuple,
   42.0 while the replicas built their tracer arguments untraced), where
   a decision that built the live-pid list and an RNG that boxed its
   state made 429.  Little of it outlives a minor collection: 7.2 words
   per op are promoted on a 64k-word minor heap, 12.3-12.9 while each
   shard's trace kept up to a drain interval of entries.  The config is
   the fleet-abd-faulty benchmark's shape cut to 2 shards x 2,000 ops:
   one-op sessions under link faults, a crash and recovery, and
   batching. *)
let alloc_config =
  {
    Core.Fleet.default with
    Core.Fleet.shards = 2;
    slots = 4;
    ops = 4_000;
    session_len = 1;
    write_ratio = 0.2;
    keys = 256;
    faults =
      {
        faults with
        Core.Faults.crash_at = [ (400, 2) ];
        recover_at = [ (900, 2) ];
      };
    batch_window = 8;
    batch_max = 8;
    seed = 42L;
    sample = 1;
  }

let alloc_tests =
  [
    tc "a faulty, batched fleet allocates at most 60 words per step"
      (fun () ->
        let before = Gc.minor_words () in
        let r =
          Core.Fleet.run ~jobs:1 ~metrics:(Core.Metrics.create ()) alloc_config
        in
        let words = Gc.minor_words () -. before in
        check_int "all ops ran" 4_000 r.Core.Fleet.total_ops;
        Alloc.at_most "fleet per step" 60.
          (words /. float_of_int r.Core.Fleet.total_steps));
    tc "a faulty, batched fleet promotes at most 9.5 words per op" (fun () ->
        (* Pool.fold_runs puts the caller on Pool.minor_heap_words unless
           an s= entry in OCAMLRUNPARAM keeps the heap it has (as
           test_pool.ml checks); promotion moves with the heap size (4.3
           words per op at 256k, 11.3 at 32k), so the test puts the
           caller on that size itself and restores its heap after *)
        let heap () = (Gc.get ()).Gc.minor_heap_size in
        let set_heap words =
          Gc.set { (Gc.get ()) with Gc.minor_heap_size = words }
        in
        let restore = heap () in
        Fun.protect
          ~finally:(fun () -> set_heap restore)
          (fun () ->
            set_heap Core.Pool.minor_heap_words;
            let promoted () = (Gc.quick_stat ()).Gc.promoted_words in
            Gc.minor ();
            let before = promoted () in
            let r =
              Core.Fleet.run ~jobs:1 ~metrics:(Core.Metrics.create ())
                alloc_config
            in
            let words = promoted () -. before in
            check_int "all ops ran" 4_000 r.Core.Fleet.total_ops;
            Alloc.at_most "fleet promoted per op" 9.5 (words /. 4000.)));
  ]

let suite =
  [
    ("fleet.sharding", shard_tests);
    ("fleet.determinism", determinism_tests);
    ("fleet.engine", engine_tests);
    ("fleet.alloc", alloc_tests);
  ]
