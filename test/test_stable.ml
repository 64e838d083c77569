(* Tests for Simkit.Stable: persist-point semantics of the write-ahead
   log and the counters. *)

module Stable = Core.Stable

let tc name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let semantics_tests =
  [
    tc "Every is write-through: crashes lose nothing" (fun () ->
        let s : int Stable.t =
          Stable.create ~metrics:(Obs.Metrics.create ()) ~policy:Stable.Every
            ~n:2 ()
        in
        Stable.append s ~node:0 1;
        Stable.append s ~node:0 2;
        check_int "durable frontier tracks the log" 2
          (Stable.durable_len s ~node:0);
        check_int "crash loses nothing" 0 (Stable.crash s ~node:0);
        check_bool "last survives" true (Stable.last s ~node:0 = Some 2);
        check_bool "log intact" true (Stable.log s ~node:0 = [ 1; 2 ]));
    tc "Explicit keeps a volatile tail until persist" (fun () ->
        let s : int Stable.t =
          Stable.create ~metrics:(Obs.Metrics.create ())
            ~policy:Stable.Explicit ~n:2 ()
        in
        Stable.append s ~node:0 1;
        Stable.persist s ~node:0;
        Stable.append s ~node:0 2;
        Stable.append s ~node:0 3;
        check_int "one durable" 1 (Stable.durable_len s ~node:0);
        check_int "three total" 3 (Stable.len s ~node:0);
        check_bool "running node reads the tail" true
          (Stable.last s ~node:0 = Some 3);
        check_bool "durable copy lags" true
          (Stable.last_durable s ~node:0 = Some 1);
        check_int "crash chops the suffix" 2 (Stable.crash s ~node:0);
        check_bool "rolled back to the sync point" true
          (Stable.last s ~node:0 = Some 1);
        check_int "cumulative loss" 2 (Stable.lost s ~node:0);
        (* crash is idempotent once the tail is gone *)
        check_int "nothing left to lose" 0 (Stable.crash s ~node:0));
    tc "persist is a frontier move, not a copy" (fun () ->
        let s : int Stable.t =
          Stable.create ~metrics:(Obs.Metrics.create ())
            ~policy:Stable.Explicit ~n:1 ()
        in
        Stable.append s ~node:0 1;
        Stable.append s ~node:0 2;
        Stable.persist s ~node:0;
        check_int "both durable" 2 (Stable.durable_len s ~node:0);
        Stable.persist s ~node:0;
        check_int "idempotent" 2 (Stable.durable_len s ~node:0);
        check_int "crash loses nothing" 0 (Stable.crash s ~node:0));
    tc "nodes are independent" (fun () ->
        let s : int Stable.t =
          Stable.create ~metrics:(Obs.Metrics.create ())
            ~policy:Stable.Explicit ~n:3 ()
        in
        Stable.append s ~node:0 1;
        Stable.append s ~node:1 2;
        Stable.persist s ~node:1;
        check_int "node 0 loses its record" 1 (Stable.crash s ~node:0);
        check_bool "node 1 untouched" true (Stable.last s ~node:1 = Some 2);
        check_bool "empty log" true (Stable.last s ~node:0 = None));
    tc "create rejects bad arguments" (fun () ->
        let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
        check_bool "n = 0" true
          (bad (fun () -> (Stable.create ~n:0 () : int Stable.t))));
    tc "counters record appends, persists and losses" (fun () ->
        let m = Obs.Metrics.create () in
        let s : int Stable.t =
          Stable.create ~metrics:m ~policy:Stable.Explicit ~n:1 ()
        in
        Stable.append s ~node:0 1;
        Stable.append s ~node:0 2;
        Stable.persist s ~node:0;
        Stable.append s ~node:0 3;
        ignore (Stable.crash s ~node:0);
        check_int "appends" 3 (Obs.Metrics.counter m "stable.appends");
        check_int "persists" 2 (Obs.Metrics.counter m "stable.persists");
        check_int "lost" 1 (Obs.Metrics.counter m "stable.lost"));
  ]

let suite = [ ("simkit.stable", semantics_tests) ]
