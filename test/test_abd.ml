(* Tests for the message-passing substrate (Net) and the ABD register. *)

module V = Core.Value
module Sched = Core.Sched
module Net = Core.Net
module Abd = Core.Abd
module Runs = Core.Abd_runs
module Hist = Core.Hist

let tc name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ----- Net ------------------------------------------------------------------------ *)

let net_tests =
  [
    tc "messages are invisible until delivered" (fun () ->
        let sched = Sched.create () in
        let net : int Net.t = Net.create ~sched ~n:3 in
        Net.send net ~src:0 ~dst:1 42;
        check_int "in flight" 1 (Net.in_flight net);
        check_bool "not receivable" true (Net.try_recv net ~pid:1 = None);
        check_bool "delivered" true (Net.deliver_now net ~dst:1);
        check_bool "receivable" true (Net.try_recv net ~pid:1 = Some 42));
    tc "deliver_now misses absent destinations" (fun () ->
        let sched = Sched.create () in
        let net : int Net.t = Net.create ~sched ~n:3 in
        Net.send net ~src:0 ~dst:1 1;
        check_bool "no msg for 2" false (Net.deliver_now net ~dst:2));
    tc "broadcast reaches everyone including the sender" (fun () ->
        let sched = Sched.create () in
        let net : int Net.t = Net.create ~sched ~n:3 in
        Net.broadcast net ~src:0 7;
        check_int "three" 3 (Net.in_flight net);
        Net.deliver_all net;
        for pid = 0 to 2 do
          check_int "mailbox" 1 (Net.mailbox_size net ~pid)
        done);
    tc "recv blocks until delivery" (fun () ->
        let sched = Sched.create () in
        let net : int Net.t = Net.create ~sched ~n:2 in
        let got = ref (-1) in
        Sched.spawn sched ~pid:1 (fun () -> got := Net.recv net ~pid:1);
        ignore (Sched.step sched ~pid:1);
        check_int "still waiting" (-1) !got;
        Net.send net ~src:0 ~dst:1 9;
        ignore (Net.deliver_now net ~dst:1);
        ignore (Sched.step sched ~pid:1);
        check_int "received" 9 !got);
    tc "drop_to discards in-flight mail" (fun () ->
        let sched = Sched.create () in
        let net : int Net.t = Net.create ~sched ~n:3 in
        Net.send net ~src:0 ~dst:1 1;
        Net.send net ~src:0 ~dst:2 2;
        Net.drop_to net ~dst:1;
        check_int "one left" 1 (Net.in_flight net));
    tc "pre-crash replies never count toward post-recovery quorums" (fun () ->
        let sched = Sched.create () in
        let net : int Net.t = Net.create ~sched ~n:3 in
        Sched.spawn sched ~pid:1 (fun () -> Core.Fiber.yield ());
        (* nodes 1 and 2 both reply (stamped incarnation 0), then node 1
           crashes and restarts: its stamp is now stale *)
        Net.send net ~src:1 ~dst:0 1;
        Net.send net ~src:2 ~dst:0 2;
        Net.deliver_all net;
        Sched.crash sched ~pid:1;
        ignore (Sched.restart sched ~pid:1 (fun () -> ()));
        let stale = ref 0 in
        let seen = Array.make 3 false in
        Sched.spawn sched ~pid:0 (fun () ->
            Net.collect_quorum net ~pid:0 ~need:1 ~seen
              ~classify:(fun v -> Some v)
              ~stale:(fun () -> incr stale)
              ~retry_after:0
              ~resend:(fun ~missing:_ -> ()));
        ignore (Sched.run sched ~policy:Sched.round_robin ~max_steps:100);
        check_int "old-incarnation reply handed to stale" 1 !stale;
        check_bool "not counted" true (not seen.(1));
        check_bool "fresh reply counted" true seen.(2));
    tc "revive restores delivery with an empty mailbox" (fun () ->
        let sched = Sched.create () in
        let net : int Net.t = Net.create ~sched ~n:2 in
        Net.send net ~src:0 ~dst:1 1;
        ignore (Net.deliver_now net ~dst:1);
        Net.mark_dead net ~pid:1;
        Net.send net ~src:0 ~dst:1 2;
        ignore (Net.deliver_now net ~dst:1);
        Net.revive net ~pid:1;
        check_bool "alive again" true (not (Net.is_dead net ~pid:1));
        check_int "fresh mailbox" 0 (Net.mailbox_size net ~pid:1);
        Net.send net ~src:0 ~dst:1 3;
        ignore (Net.deliver_now net ~dst:1);
        check_bool "post-revival mail flows" true
          (Net.try_recv net ~pid:1 = Some 3));
    tc "random delivery eventually drains" (fun () ->
        let sched = Sched.create () in
        let net : int Net.t = Net.create ~sched ~n:4 in
        for i = 1 to 10 do
          Net.send net ~src:0 ~dst:(i mod 4) i
        done;
        let rng = Core.Rng.create 3L in
        while Net.deliver_one net ~rng do
          ()
        done;
        check_int "drained" 0 (Net.in_flight net));
  ]

(* ----- ABD ------------------------------------------------------------------------- *)

let seeds = [ 1L; 2L; 3L; 4L; 5L ]

(* the single-writer workload of E6, E11 and E13: writer 0 and readers
   1 and 2 on five nodes, four writes and three reads each; [crashes]
   takes replicas 3 and 4 down at steps 60 and 120 *)
let shape =
  {
    Core.Run_config.default with
    Core.Run_config.writes_each = 4;
    reads_each = 3;
  }

let crashing crash_at = { Core.Faults.none with Core.Faults.crash_at }
let crashes = crashing [ (60, 3); (120, 4) ]

let abd_tests =
  [
    tc "writer reads back its own last write" (fun () ->
        let sched = Sched.create ~seed:1L () in
        let reg = Abd.create ~sched ~name:"ABD" ~n:3 ~writer:0 ~init:0 () in
        let got = ref (-1) in
        Sched.spawn sched ~pid:0 (fun () ->
            Abd.write reg 5;
            got := Abd.read reg ~reader:0);
        let rng = Core.Rng.create 2L in
        let policy =
          Net.auto_deliver_policy (Abd.net reg) ~rng (Sched.random_policy rng)
        in
        ignore (Sched.run sched ~policy ~max_steps:3000);
        check_int "read back" 5 !got);
    tc "majority is computed correctly" (fun () ->
        let reg =
          Abd.create ~sched:(Sched.create ()) ~name:"A" ~n:5 ~writer:0 ~init:0 ()
        in
        check_int "majority of 5" 3 (Abd.majority reg);
        let reg4 =
          Abd.create ~sched:(Sched.create ()) ~name:"B" ~n:4 ~writer:0 ~init:0 ()
        in
        check_int "majority of 4" 3 (Abd.majority reg4));
    tc "create validates parameters" (fun () ->
        let sched = Sched.create () in
        Alcotest.check_raises "n" (Invalid_argument "Abd.create: n must be >= 2")
          (fun () ->
            ignore (Abd.create ~sched ~name:"X" ~n:1 ~writer:0 ~init:0 ()));
        Alcotest.check_raises "writer"
          (Invalid_argument "Abd.create: writer out of range") (fun () ->
            ignore (Abd.create ~sched ~name:"Y" ~n:3 ~writer:5 ~init:0 ())));
    tc "operations complete despite minority crash" (fun () ->
        let run =
          Runs.execute_config { shape with faults = crashes; seed = 77L }
        in
        check_bool "completed" true run.Runs.completed);
    tc "crashing the writer is rejected by the driver" (fun () ->
        Alcotest.check_raises "writer"
          (Invalid_argument "Runs.Config: crashed nodes cannot be clients")
          (fun () ->
            ignore
              (Runs.execute_config
                 { shape with faults = crashing [ (60, 0) ] })));
    tc "crashing a majority is rejected by the driver" (fun () ->
        Alcotest.check_raises "majority"
          (Invalid_argument "Runs.Config: crash set must be a strict minority")
          (fun () ->
            ignore
              (Runs.execute_config
                 {
                   shape with
                   faults = crashing [ (60, 1); (60, 2); (60, 3) ];
                 })));
    tc "histories are linearizable across seeds" (fun () ->
        List.iter
          (fun seed ->
            let run = Runs.execute_config { shape with seed } in
            check_bool "completed" true run.Runs.completed;
            check_bool "linearizable" true
              (Core.Lincheck.check ~init:(V.Int 0) run.Runs.history))
          seeds);
    tc "histories are WSL (f*) across seeds — Theorem 14" (fun () ->
        List.iter
          (fun seed ->
            let run = Runs.execute_config { shape with seed } in
            check_bool "wsl" true (Runs.check run = Ok ()))
          seeds);
    tc "crashed runs are still linearizable + WSL" (fun () ->
        List.iter
          (fun seed ->
            let run =
              Runs.execute_config { shape with seed; faults = crashes }
            in
            check_bool "ok" true (Runs.check run = Ok ()))
          seeds);
    tc "no new-old inversion for a single reader" (fun () ->
        (* the write-back phase guarantees a reader's successive reads see
           non-decreasing values in writer order *)
        let run =
          Runs.execute_config
            { shape with readers = [ 1 ]; reads_each = 6; seed = 13L }
        in
        let values =
          Hist.ops run.Runs.history
          |> List.filter_map (fun (o : Core.Op.t) ->
                 if Core.Op.is_read o && o.Core.Op.proc = 1 then
                   match o.Core.Op.result with
                   | Some (V.Int v) -> Some v
                   | _ -> None
                 else None)
        in
        let rec non_decreasing = function
          | a :: (b :: _ as rest) -> a <= b && non_decreasing rest
          | _ -> true
        in
        check_bool "monotone reads" true (non_decreasing values));
    tc "writer order equals f* write order" (fun () ->
        let run = Runs.execute_config { shape with seed = 21L } in
        match Core.Fstar.wsl_function ~init:(V.Int 0) run.Runs.history with
        | Error e -> Alcotest.fail e
        | Ok orders ->
            let final = List.nth orders (List.length orders - 1) in
            let writer_order =
              Hist.writes run.Runs.history
              |> List.filter Core.Op.is_complete
              |> List.map (fun (o : Core.Op.t) -> o.id)
            in
            (* the completed writes appear in writer order; f* may include
               a trailing read-observed pending write, so compare prefixes *)
            let rec is_prefix p q =
              match (p, q) with
              | [], _ -> true
              | _, [] -> false
              | x :: p', y :: q' -> x = y && is_prefix p' q'
            in
            check_bool "writer order" true
              (is_prefix writer_order final || is_prefix final writer_order));
    tc "CLI and battery runs replay from their config JSON" (fun () ->
        (* the configs of `rlin abd --crash 3@60,4@120 --drop 0.1`,
           `rlin trace --source abd --seed 20260805` and E6's second run,
           so any of them can be saved as a corpus entry *)
        let configs =
          [
            {
              shape with
              writes_each = 5;
              reads_each = 4;
              faults =
                { crashes with Core.Faults.drop = 0.1; delay_bound = 4 };
            };
            { shape with seed = 20260805L };
            { shape with faults = crashes; seed = 82L };
          ]
        in
        let trace c =
          List.map Core.Json.to_string
            (Core.Trace.json_entries (Runs.execute_config c).Runs.trace)
        in
        List.iter
          (fun c ->
            match
              Result.bind
                (Core.Json.of_string
                   (Core.Json.to_string (Core.Run_config.json c)))
                Core.Run_config.of_json
            with
            | Error e -> Alcotest.fail e
            | Ok c' ->
                check_bool "same config" true (c = c');
                check_bool "same trace JSONL" true (trace c = trace c'))
          configs);
  ]

(* ----- crash-recovery -------------------------------------------------------- *)

(* The two registers behind one signature, so each recovery test below
   runs against both: the writer is node 0's fiber. *)
module type REG = sig
  include Msgpass.Replica.S

  val proto : string

  val create :
    ?persist:[ `Every | `Never ] ->
    ?unsafe_recovery:bool ->
    sched:Sched.t ->
    n:int ->
    unit ->
    t

  val write : t -> int -> unit
end

module Abd_reg = struct
  include Abd

  let proto = "abd"

  let create ?persist ?unsafe_recovery ~sched ~n () =
    Abd.create ?persist ?unsafe_recovery ~sched ~name:"R" ~n ~writer:0 ~init:0
      ()
end

module Mw_reg = struct
  include Core.Mwabd

  let proto = "mwabd"

  let create ?persist ?unsafe_recovery ~sched ~n () =
    Core.Mwabd.create ?persist ?unsafe_recovery ~sched ~name:"R" ~n ~init:0 ()

  let write t v = Core.Mwabd.write t ~proc:0 v
end

let recovery_tests (module R : REG) =
  let counter m k = Obs.Metrics.counter m ("reg." ^ R.proto ^ "." ^ k) in
  [
    tc "safe recovery runs one state transfer and loses nothing" (fun () ->
        let m = Obs.Metrics.create () in
        let sched = Sched.create ~metrics:m ~seed:5L () in
        let reg = R.create ~sched ~n:5 ~persist:`Never () in
        let got = ref (-1) in
        Sched.spawn sched ~pid:0 (fun () ->
            R.write reg 7;
            R.crash_node reg ~node:3;
            R.write reg 8;
            R.recover_node reg ~node:3;
            (* let the handshake finish before reading *)
            for _ = 1 to 100 do
              Core.Fiber.yield ()
            done;
            got := R.read reg ~reader:0);
        let rng = Core.Rng.create 2L in
        let policy =
          Net.auto_deliver_policy (R.net reg) ~rng (Sched.random_policy rng)
        in
        ignore (Sched.run sched ~policy ~max_steps:20_000);
        check_int "read sees the latest write" 8 !got;
        check_int "one restart" 1 (Obs.Metrics.counter m "sched.restarts");
        check_int "one handshake" 1 (counter m "state_transfer");
        check_int "one recovery" 1 (counter m "recoveries");
        check_int "no amnesia" 0 (counter m "amnesia"));
    tc "unsafe recovery with nothing durable is amnesia" (fun () ->
        let m = Obs.Metrics.create () in
        let sched = Sched.create ~metrics:m ~seed:5L () in
        let reg =
          R.create ~sched ~n:5 ~persist:`Never ~unsafe_recovery:true ()
        in
        Sched.spawn sched ~pid:0 (fun () ->
            R.write reg 7;
            (* make sure replica 3 has processed the write before it
               crashes, so the crash really discards acknowledged state *)
            Net.deliver_all (R.net reg);
            for _ = 1 to 100 do
              Core.Fiber.yield ()
            done;
            R.crash_node reg ~node:3;
            R.recover_node reg ~node:3;
            ignore (R.read reg ~reader:0));
        let rng = Core.Rng.create 2L in
        let policy =
          Net.auto_deliver_policy (R.net reg) ~rng (Sched.random_policy rng)
        in
        ignore (Sched.run sched ~policy ~max_steps:20_000);
        check_int "rolled-back rejoin counted" 1 (counter m "amnesia");
        check_int "no handshake ran" 0 (counter m "state_transfer"));
    tc "recover_node demands a crashed node" (fun () ->
        let sched = Sched.create () in
        let reg = R.create ~sched ~n:3 () in
        Alcotest.check_raises "running"
          (Invalid_argument "Sched.restart: pid 102 has not crashed") (fun () ->
            R.recover_node reg ~node:2));
  ]

(* ----- allocation ceiling --------------------------------------------------------- *)

(* E14's run through two crash + state-transfer recoveries with nothing
   durable: 38.2 minor words per scheduler step on OCaml 5.1.1 (39.7 while
   the replicas built their tracer arguments untraced). *)
let alloc_tests =
  [
    tc "a recovering ABD run allocates at most 58 words per step" (fun () ->
        let config =
          {
            Core.Run_config.default with
            Core.Run_config.seed = 9L;
            persist = `Never;
            faults =
              {
                Core.Faults.none with
                Core.Faults.crash_at = [ (60, 3); (120, 4) ];
                recover_at = [ (110, 3); (170, 4) ];
              };
          }
        in
        Alloc.at_most "ABD recovery per step" 58.
          (Alloc.words_per ~counter:"sched.steps" (fun metrics ->
               ignore (Runs.execute_config ~metrics config))));
  ]

let suite =
  [
    ("msgpass.net", net_tests);
    ("msgpass.abd", abd_tests);
    ("msgpass.abd.recovery", recovery_tests (module Abd_reg));
    ("msgpass.mwabd.recovery", recovery_tests (module Mw_reg));
    ("msgpass.alloc", alloc_tests);
  ]
