(* Tests for commit-adopt, the randomized consensus (task 𝒜), and the
   Corollary 9 composition 𝒜′. *)

module CA = Core.Commit_adopt
module RC = Core.Rand_consensus
module Cor9 = Core.Cor9
module Sched = Core.Sched

let tc name f = Alcotest.test_case name `Quick f
let tcs name f = Alcotest.test_case name `Slow f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* run a commit-adopt instance with the given proposals under a policy;
   returns proc -> verdict *)
let run_ca ~n ~proposals ~seed =
  let sched = Sched.create ~seed () in
  let ca = CA.create ~sched ~name:"CA" ~n in
  let verdicts = Hashtbl.create 8 in
  List.iteri
    (fun i v ->
      let proc = i + 1 in
      Sched.spawn sched ~pid:proc (fun () ->
          Hashtbl.replace verdicts proc (CA.propose ca ~proc v)))
    proposals;
  let rng = Core.Rng.create (Int64.add seed 7L) in
  ignore (Sched.run sched ~policy:(Sched.random_policy rng) ~max_steps:(n * 200));
  fun proc -> Hashtbl.find_opt verdicts proc

let ca_tests =
  [
    tc "unanimous proposals all commit" (fun () ->
        let v = run_ca ~n:3 ~proposals:[ 4; 4; 4 ] ~seed:1L in
        for p = 1 to 3 do
          match v p with
          | Some (CA.Commit 4) -> ()
          | other ->
              Alcotest.fail
                (Printf.sprintf "p%d: expected Commit 4, got %s" p
                   (match other with
                   | Some (CA.Commit x) -> Printf.sprintf "Commit %d" x
                   | Some (CA.Adopt x) -> Printf.sprintf "Adopt %d" x
                   | Some CA.Flip -> "Flip"
                   | None -> "nothing"))
        done);
    tc "solo proposer commits" (fun () ->
        let sched = Sched.create () in
        let ca = CA.create ~sched ~name:"CA" ~n:3 in
        let out = ref None in
        Sched.spawn sched ~pid:1 (fun () -> out := Some (CA.propose ca ~proc:1 9));
        ignore
          (Sched.run sched ~policy:(fun s -> Sched.round_robin s) ~max_steps:100);
        check_bool "commit" true (!out = Some (CA.Commit 9)));
    tc "commit forces everyone onto the same value (agreement core)"
      (fun () ->
        (* across many seeds and mixed proposals: if anyone commits v, no
           one adopts or commits a different value, and nobody flips *)
        for seed = 1 to 60 do
          let v = run_ca ~n:4 ~proposals:[ 0; 1; 0; 1 ] ~seed:(Int64.of_int seed) in
          let committed = ref None in
          for p = 1 to 4 do
            match v p with
            | Some (CA.Commit x) -> committed := Some x
            | _ -> ()
          done;
          match !committed with
          | None -> ()
          | Some x ->
              for p = 1 to 4 do
                match v p with
                | Some (CA.Commit y) | Some (CA.Adopt y) ->
                    check_int "same value" x y
                | Some CA.Flip -> Alcotest.fail "flip alongside a commit"
                | None -> ()
              done
        done);
    tc "at most one value is ever clean" (fun () ->
        (* adopts never disagree: collect adopt values, all equal *)
        for seed = 100 to 160 do
          let v = run_ca ~n:3 ~proposals:[ 0; 1; 1 ] ~seed:(Int64.of_int seed) in
          let adopted = ref [] in
          for p = 1 to 3 do
            match v p with
            | Some (CA.Adopt x) | Some (CA.Commit x) -> adopted := x :: !adopted
            | _ -> ()
          done;
          match !adopted with
          | [] -> ()
          | x :: rest -> List.iter (fun y -> check_int "agree" x y) rest
        done);
    tc "propose validates proc" (fun () ->
        let sched = Sched.create () in
        let ca = CA.create ~sched ~name:"CA" ~n:2 in
        Alcotest.check_raises "proc"
          (Invalid_argument "Commit_adopt.propose: bad proc") (fun () ->
            ignore (CA.propose ca ~proc:3 1)));
  ]

(* ----- randomized consensus --------------------------------------------------------- *)

let rc_tests =
  [
    tc "agreement and validity on every seed" (fun () ->
        for seed = 1 to 25 do
          let r =
            RC.run_random
              { RC.n = 4; max_rounds = 300; seed = Int64.of_int seed }
              ~inputs:(fun p -> p mod 2)
          in
          check_bool "agreed" true r.RC.agreed;
          check_bool "valid" true r.RC.valid;
          check_int "all decided" 4
            (List.length (List.filter (fun (_, d) -> d <> None) r.RC.decisions))
        done);
    tc "unanimous input decides that input, round 1" (fun () ->
        for seed = 1 to 10 do
          let r =
            RC.run_random
              { RC.n = 4; max_rounds = 50; seed = Int64.of_int (seed * 3) }
              ~inputs:(fun _ -> 1)
          in
          List.iter
            (fun (_, d) -> check_bool "decided 1" true (d = Some 1))
            r.RC.decisions
        done);
    tc "n = 1 decides immediately" (fun () ->
        let r =
          RC.run_random { RC.n = 1; max_rounds = 10; seed = 3L }
            ~inputs:(fun _ -> 0)
        in
        check_bool "decided" true (List.for_all (fun (_, d) -> d = Some 0) r.RC.decisions));
    tcs "terminates under round-robin too" (fun () ->
        for seed = 1 to 10 do
          let sched = Sched.create ~seed:(Int64.of_int seed) () in
          let collect =
            RC.spawn ~sched
              { RC.n = 3; max_rounds = 400; seed = Int64.of_int seed }
              ~inputs:(fun p -> (p + seed) mod 2)
          in
          ignore
            (Sched.run sched
               ~policy:(fun s -> Sched.round_robin s)
               ~max_steps:500_000);
          let r = collect () in
          check_bool "agreed" true r.RC.agreed;
          check_int "all decided" 3
            (List.length (List.filter (fun (_, d) -> d <> None) r.RC.decisions))
        done);
  ]

(* ----- Corollary 9 ------------------------------------------------------------------- *)

let cor9_tests =
  [
    tc "blocked: the gate never opens under the Theorem-6 adversary" (fun () ->
        let o =
          Cor9.run_blocked
            { Cor9.n = 5; gate_rounds = 12; consensus_max_rounds = 100; seed = 3L }
        in
        check_bool "blocked" true o.Cor9.blocked;
        check_bool "game alive" true
          (not o.Cor9.game.Core.Game_alg1.terminated);
        List.iter
          (fun (_, d) -> check_bool "no decision" true (d = None))
          o.Cor9.consensus.RC.decisions);
    tc "live: gate opens and consensus completes, several seeds" (fun () ->
        List.iter
          (fun seed ->
            let o =
              Cor9.run_live
                { Cor9.n = 5; gate_rounds = 60; consensus_max_rounds = 300; seed }
                ~inputs:(fun pid -> pid mod 2)
            in
            check_bool "game over" true o.Cor9.game.Core.Game_alg1.terminated;
            check_bool "agreed" true o.Cor9.consensus.RC.agreed;
            check_bool "valid" true o.Cor9.consensus.RC.valid;
            check_int "all decided" 5
              (List.length
                 (List.filter (fun (_, d) -> d <> None) o.Cor9.consensus.RC.decisions)))
          [ 1L; 2L; 3L; 4L ]);
    tc "live with unanimous inputs decides that input" (fun () ->
        let o =
          Cor9.run_live
            { Cor9.n = 4; gate_rounds = 60; consensus_max_rounds = 200; seed = 9L }
            ~inputs:(fun _ -> 1)
        in
        List.iter
          (fun (_, d) -> check_bool "one" true (d = Some 1))
          o.Cor9.consensus.RC.decisions);
    tc "rejects n < 3" (fun () ->
        Alcotest.check_raises "n"
          (Invalid_argument "Cor9.run_blocked: n must be >= 3") (fun () ->
            ignore
              (Cor9.run_blocked
                 { Cor9.n = 2; gate_rounds = 1; consensus_max_rounds = 1; seed = 1L })));
  ]

let suite =
  [
    ("consensus.commit_adopt", ca_tests);
    ("consensus.randomized", rc_tests);
    ("consensus.cor9", cor9_tests);
  ]
