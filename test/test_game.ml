(* Tests for Algorithm 1 (the game), its bounded variant, and the
   Theorem-6 / Theorem-7 adversaries — the paper's headline results. *)

module V = Core.Value
module Alg1 = Core.Game_alg1
module Adv = Core.Adv_register
module Thm6 = Core.Adversary
module Stats = Core.Game_stats
module Sched = Core.Sched
module Hist = Core.Hist

let tc name f = Alcotest.test_case name `Quick f
let tcs name f = Alcotest.test_case name `Slow f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ----- Theorem 6 ----------------------------------------------------------------- *)

let thm6_tests =
  [
    tc "adversary survives any budget, multiple seeds" (fun () ->
        List.iter
          (fun seed ->
            let res = Thm6.run_linearizable ~n:5 ~rounds:12 ~seed () in
            check_bool "alive" true (not res.Alg1.terminated);
            check_bool "deep" true (res.Alg1.max_round > 12))
          [ 1L; 2L; 3L; 4L; 5L; 1234L ]);
    tc "works for the minimum n = 3" (fun () ->
        let res = Thm6.run_linearizable ~n:3 ~rounds:8 ~seed:9L () in
        check_bool "alive" true (not res.Alg1.terminated));
    tc "works for larger n" (fun () ->
        let res = Thm6.run_linearizable ~n:8 ~rounds:6 ~seed:10L () in
        check_bool "alive" true (not res.Alg1.terminated));
    tc "bounded variant (Appendix B) behaves identically" (fun () ->
        let res = Thm6.run_bounded_linearizable ~n:5 ~rounds:10 ~seed:11L () in
        check_bool "alive" true (not res.Alg1.terminated);
        check_bool "deep" true (res.Alg1.max_round > 10));
    tc "every process is kept in the game (not just some)" (fun () ->
        let res = Thm6.run_linearizable ~n:5 ~rounds:7 ~seed:12L () in
        List.iter
          (fun (_, o) -> check_bool "no exit" true (o = Alg1.Exhausted))
          res.Alg1.outcomes);
    tc "rejects invalid parameters" (fun () ->
        Alcotest.check_raises "n"
          (Invalid_argument "Thm6.run_linearizable: n must be >= 3") (fun () ->
            ignore (Thm6.run_linearizable ~n:2 ~rounds:1 ~seed:1L ()));
        Alcotest.check_raises "rounds"
          (Invalid_argument "Thm6.run_linearizable: rounds must be >= 1")
          (fun () -> ignore (Thm6.run_linearizable ~n:3 ~rounds:0 ~seed:1L ()));
        Alcotest.check_raises "max_rounds"
          (Invalid_argument "Thm6.run_write_strong: max_rounds must be >= 1")
          (fun () ->
            ignore (Thm6.run_write_strong ~n:3 ~max_rounds:0 ~seed:1L ())));
    tc "R1's run is genuinely linearizable (witness audit)" (fun () ->
        (* the adversary's edits went through the legality checks; confirm
           independently with the exact checker on the R1 projection of a
           short run *)
        let res = Thm6.run_linearizable ~n:4 ~rounds:2 ~seed:13L () in
        let h = res.Alg1.handles in
        let tr = Sched.trace h.Alg1.sched in
        let r1h = Hist.project (Core.Trace.history tr) ~obj:"R1" in
        check_bool "linearizable" true
          (Core.Lincheck.check ~init:V.Bot r1h));
    tc "adversary's committed R1 sequence is a valid linearization" (fun () ->
        let res = Thm6.run_linearizable ~n:4 ~rounds:3 ~seed:14L () in
        let h = res.Alg1.handles in
        let tr = Sched.trace h.Alg1.sched in
        let r1h = Hist.project (Core.Trace.history tr) ~obj:"R1" in
        let wit = Adv.linearization h.Alg1.r1 in
        check_bool "witness" true
          (Hist.Seq.is_linearization_of ~init:V.Bot r1h wit));
    tc "R1's write commit log shows a retroactive edit" (fun () ->
        (* run until a coin forces Case 2 (insertion before a committed
           write): across seeds, some round has coin=1 *)
        let res = Thm6.run_linearizable ~n:4 ~rounds:8 ~seed:15L () in
        let h = res.Alg1.handles in
        let log = List.map snd (Adv.write_commit_log h.Alg1.r1) in
        let rec is_prefix p q =
          match (p, q) with
          | [], _ -> true
          | _, [] -> false
          | x :: p', y :: q' -> x = y && is_prefix p' q'
        in
        let rec monotone = function
          | a :: (b :: _ as rest) -> is_prefix a b && monotone rest
          | _ -> true
        in
        check_bool "edited retroactively" false (monotone log));
  ]

(* ----- Theorem 7 ----------------------------------------------------------------- *)

let thm7_tests =
  [
    tc "WSL registers: the adversary cannot prevent termination" (fun () ->
        List.iter
          (fun seed ->
            let res = Thm6.run_write_strong ~n:5 ~max_rounds:60 ~seed () in
            check_bool "terminated" true res.Alg1.terminated)
          [ 1L; 2L; 3L; 4L; 5L; 6L; 7L; 8L ]);
    tc "all processes exit in the same round or the next" (fun () ->
        let res = Thm6.run_write_strong ~n:5 ~max_rounds:60 ~seed:3L () in
        match
          List.filter_map
            (fun (_, o) -> match o with Alg1.Exited j -> Some j | _ -> None)
            res.Alg1.outcomes
        with
        | [] -> Alcotest.fail "nobody exited"
        | js ->
            let mn = List.fold_left min max_int js in
            let mx = List.fold_left max 0 js in
            check_bool "tight" true (mx - mn <= 1));
    tc "bounded variant also terminates" (fun () ->
        let res =
          Thm6.run_write_strong ~variant:Alg1.Bounded ~n:5 ~max_rounds:60
            ~seed:21L ()
        in
        check_bool "terminated" true res.Alg1.terminated);
    tcs "termination round is geometric-ish (Lemma 19)" (fun () ->
        let t = Stats.e2_termination ~n:5 ~max_rounds:60 ~runs:300 ~seed:5L () in
        check_bool "all terminate" true (t.Stats.max < 60);
        (* mean of Geometric(1/2) is 2 *)
        check_bool "mean near 2" true (t.Stats.mean > 1.5 && t.Stats.mean < 2.6);
        (* survival halves per round, within generous sampling slack *)
        List.iter
          (fun (j, p) ->
            if j >= 1 && j <= 3 then begin
              let expected = 2. ** float_of_int (-j) in
              check_bool
                (Printf.sprintf "P(>%d)=%.3f vs %.3f" j p expected)
                true
                (p < (2. *. expected) +. 0.05 && p > expected /. 3.)
            end)
          t.Stats.tail);
    tc "WSL game histories are linearizable" (fun () ->
        let res = Thm6.run_write_strong ~n:4 ~max_rounds:40 ~seed:33L () in
        let tr = Sched.trace res.Alg1.handles.Alg1.sched in
        let h = Core.Trace.history tr in
        List.iter
          (fun (obj, init) ->
            check_bool obj true
              (Core.Lincheck.check ~init (Hist.project h ~obj)))
          [ ("R1", V.Bot); ("C", V.Bot) ]);
    tc "WSL mode write orders stayed append-only in the game" (fun () ->
        let res = Thm6.run_write_strong ~n:4 ~max_rounds:40 ~seed:34L () in
        let r1 = res.Alg1.handles.Alg1.r1 in
        let log = List.map snd (Adv.write_commit_log r1) in
        let rec is_prefix p q =
          match (p, q) with
          | [], _ -> true
          | _, [] -> false
          | x :: p', y :: q' -> x = y && is_prefix p' q'
        in
        let rec monotone = function
          | a :: (b :: _ as rest) -> is_prefix a b && monotone rest
          | _ -> true
        in
        check_bool "monotone" true (monotone log));
  ]

(* ----- baselines and variants ------------------------------------------------------ *)

let baseline_tests =
  [
    tc "atomic registers + random scheduler: quick termination" (fun () ->
        List.iter
          (fun seed ->
            let cfg = { Alg1.default with n = 5; max_rounds = 50; seed } in
            let res = Alg1.run_random cfg ~max_steps:100_000 in
            check_bool "terminated" true res.Alg1.terminated)
          [ 1L; 2L; 3L ]);
    tc "linearizable registers + RANDOM scheduler also terminate" (fun () ->
        (* without the adversary the auto-commit order is benign: the
           Theorem-6 behaviour needs the adversary, not just the weak
           registers *)
        List.iter
          (fun seed ->
            let cfg =
              {
                Alg1.default with
                n = 5;
                mode = Adv.Linearizable;
                max_rounds = 50;
                seed;
              }
            in
            let res = Alg1.run_random cfg ~max_steps:100_000 in
            check_bool "terminated" true res.Alg1.terminated)
          [ 4L; 5L; 6L ]);
    tc "round-robin + atomic terminates" (fun () ->
        let cfg = { Alg1.default with n = 4; max_rounds = 50; seed = 7L } in
        let res = Alg1.run_round_robin cfg ~max_steps:100_000 in
        check_bool "terminated" true res.Alg1.terminated);
    tc "bounded and unbounded agree under the same schedule" (fun () ->
        (* Appendix B: the two variants have the same runs; with identical
           seeds and the same policy the exit rounds coincide *)
        List.iter
          (fun seed ->
            let run variant =
              let cfg =
                { Alg1.default with n = 4; variant; max_rounds = 50; seed }
              in
              (Alg1.run_random cfg ~max_steps:100_000).Alg1.outcomes
            in
            let a = run Alg1.Unbounded and b = run Alg1.Bounded in
            List.iter2
              (fun (pa, oa) (pb, ob) ->
                check_int "pid" pa pb;
                check_bool "same outcome" true (oa = ob))
              a b)
          [ 8L; 9L; 10L ]);
    tc "setup rejects n < 3" (fun () ->
        Alcotest.check_raises "n" (Invalid_argument "Alg1.setup: n must be >= 3")
          (fun () -> ignore (Alg1.setup { Alg1.default with n = 2 })));
    tc "e1 survival is 100% everywhere" (fun () ->
        let s = Stats.e1_survival ~n:5 ~budgets:[ 1; 3; 9 ] ~runs:4 ~seed:50L () in
        List.iter
          (fun f -> check_bool "alive" true (f = 1.0))
          s.Stats.alive_fraction);
    tc "atomic termination stats are fast" (fun () ->
        let t = Stats.atomic_termination ~n:5 ~max_rounds:40 ~runs:30 ~seed:51L () in
        check_bool "all terminate" true (t.Stats.max < 40);
        check_bool "quick" true (t.Stats.mean < 4.));
  ]

let suite =
  [
    ("game.thm6", thm6_tests);
    ("game.thm7", thm7_tests);
    ("game.baselines", baseline_tests);
  ]
