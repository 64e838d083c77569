(* Tests for safe/regular registers (Lamport's hierarchy below
   linearizability) and the chaos adversary. *)

module V = Core.Value
module Weak = Registers.Weak_register
module Sched = Core.Sched
module Hist = Core.Hist

let tc name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mk mode =
  let sched = Sched.create ~seed:5L () in
  let r =
    Weak.create ~sched ~name:"R" ~writer:1 ~init:(V.Int 0) ~mode
  in
  (sched, r)

let step sched pid = ignore (Sched.step sched ~pid)

let run_out sched pid =
  let fuel = ref 20 in
  while Sched.runnable sched ~pid && !fuel > 0 do
    decr fuel;
    step sched pid
  done

let weak_tests =
  [
    tc "quiet read returns last written value (both modes)" (fun () ->
        List.iter
          (fun mode ->
            let sched, r = mk mode in
            let got = ref V.Bot in
            Sched.spawn sched ~pid:1 (fun () ->
                Weak.write r ~proc:1 (V.Int 9);
                got := Weak.read r ~proc:1);
            run_out sched 1;
            check_bool "value" true (V.equal !got (V.Int 9)))
          [ Weak.Safe; Weak.Regular ]);
    tc "non-writer writes rejected" (fun () ->
        let sched, r = mk Weak.Regular in
        let rejected = ref false in
        Sched.spawn sched ~pid:2 (fun () ->
            try Weak.write r ~proc:2 (V.Int 1)
            with Invalid_argument _ -> rejected := true);
        run_out sched 2;
        check_bool "rejected" true !rejected);
    tc "regular: overlapping read may return old or new" (fun () ->
        let sched, r = mk Weak.Regular in
        Sched.spawn sched ~pid:1 (fun () -> Weak.write r ~proc:1 (V.Int 1));
        Sched.spawn sched ~pid:2 (fun () -> ignore (Weak.read r ~proc:2));
        step sched 1 (* write invoked, in progress *);
        step sched 2 (* read invoked, overlapping *);
        let op_id, _ = List.hd (Weak.pending_reads r) in
        let legal = Weak.legal_values r ~op_id in
        check_bool "old legal" true (List.exists (V.equal (V.Int 0)) legal);
        check_bool "new legal" true (List.exists (V.equal (V.Int 1)) legal);
        check_int "nothing else" 2 (List.length legal));
    tc "regular: quiet read has exactly one legal value" (fun () ->
        let sched, r = mk Weak.Regular in
        Sched.spawn sched ~pid:1 (fun () -> Weak.write r ~proc:1 (V.Int 1));
        run_out sched 1;
        Sched.spawn sched ~pid:2 (fun () -> ignore (Weak.read r ~proc:2));
        step sched 2;
        let op_id, _ = List.hd (Weak.pending_reads r) in
        Alcotest.(check (list string))
          "only the new value"
          [ "1" ]
          (List.map V.to_string (Weak.legal_values r ~op_id)));
    tc "regular: resolving to an illegal value is refused" (fun () ->
        let sched, r = mk Weak.Regular in
        Sched.spawn sched ~pid:2 (fun () -> ignore (Weak.read r ~proc:2));
        step sched 2;
        let op_id, _ = List.hd (Weak.pending_reads r) in
        try
          Weak.resolve_read r ~op_id ~value:(V.Int 77);
          Alcotest.fail "accepted an illegal value"
        with Invalid_argument _ -> ());
    tc "safe: overlapping read may return anything ever written" (fun () ->
        let sched, r = mk Weak.Safe in
        Sched.spawn sched ~pid:1 (fun () ->
            Weak.write r ~proc:1 (V.Int 1);
            Weak.write r ~proc:1 (V.Int 2));
        run_out sched 1;
        (* start a third write and overlap a read with it *)
        Sched.spawn sched ~pid:3 (fun () -> Weak.write r ~proc:1 (V.Int 3));
        step sched 3;
        Sched.spawn sched ~pid:2 (fun () -> ignore (Weak.read r ~proc:2));
        step sched 2;
        let op_id, _ = List.hd (Weak.pending_reads r) in
        let legal = Weak.legal_values r ~op_id in
        (* 0 (init), 1, 2, 3 all legal under Safe *)
        List.iter
          (fun v ->
            check_bool (V.to_string v) true (List.exists (V.equal v) legal))
          [ V.Int 0; V.Int 1; V.Int 2; V.Int 3 ]);
    tc "regular admits new-old inversion; linearizability forbids it"
      (fun () ->
        (* two sequential reads overlap one write; resolve the first to the
           NEW value and the second to the OLD one — legal for a regular
           register, and the recorded history fails the exact
           linearizability checker *)
        let sched, r = mk Weak.Regular in
        Sched.spawn sched ~pid:1 (fun () -> Weak.write r ~proc:1 (V.Int 1));
        Sched.spawn sched ~pid:2 (fun () ->
            ignore (Weak.read r ~proc:2);
            ignore (Weak.read r ~proc:2));
        step sched 1 (* write in progress, stays so *);
        step sched 2 (* read 1 invoked *);
        let rd1, _ = List.hd (Weak.pending_reads r) in
        Weak.resolve_read r ~op_id:rd1 ~value:(V.Int 1) (* NEW *);
        step sched 2 (* read 1 responds; read 2 invoked *);
        let rd2, _ = List.hd (Weak.pending_reads r) in
        Weak.resolve_read r ~op_id:rd2 ~value:(V.Int 0) (* OLD *);
        step sched 2 (* read 2 responds *);
        run_out sched 2;
        run_out sched 1;
        let h = Core.Trace.history (Sched.trace sched) in
        check_bool "NOT linearizable" false
          (Core.Lincheck.check ~init:(V.Int 0) h));
  ]

(* ----- chaos adversary -------------------------------------------------------- *)

let chaos_prop mode name =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:25
       (QCheck.make ~print:Int64.to_string
          QCheck.Gen.(map Int64.of_int (int_bound 1_000_000)))
       (fun seed ->
         let o = Scenarios.Chaos.run ~mode ~n_procs:3 ~ops_per_proc:3 ~seed in
         Core.Hist.Seq.is_linearization_of ~init:(V.Int 0) o.Scenarios.Chaos.history
           o.Scenarios.Chaos.witness
         && Core.Lincheck.check ~init:(V.Int 0) o.Scenarios.Chaos.history))

let chaos_tests =
  [
    chaos_prop Core.Adv_register.Linearizable
      "chaos(linearizable): every reachable history is linearizable";
    chaos_prop Core.Adv_register.Write_strong
      "chaos(write-strong): every reachable history is linearizable";
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"chaos(write-strong): write order stays append-only" ~count:25
         (QCheck.make ~print:Int64.to_string
            QCheck.Gen.(map Int64.of_int (int_bound 1_000_000)))
         (fun seed ->
           let o =
             Scenarios.Chaos.run ~mode:Core.Adv_register.Write_strong
               ~n_procs:3 ~ops_per_proc:3 ~seed
           in
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
           monotone (List.map snd o.Scenarios.Chaos.commit_log)));
    tc "chaos attempts edits and some get refused" (fun () ->
        (* sanity: the adversary actually exercises the legality checks *)
        let total_attempted = ref 0 and total_refused = ref 0 in
        for seed = 1 to 20 do
          let o =
            Scenarios.Chaos.run ~mode:Core.Adv_register.Write_strong ~n_procs:3
              ~ops_per_proc:3 ~seed:(Int64.of_int (seed * 97))
          in
          total_attempted := !total_attempted + o.Scenarios.Chaos.attempted_edits;
          total_refused := !total_refused + o.Scenarios.Chaos.refused_edits
        done;
        check_bool "attempted" true (!total_attempted > 0);
        check_bool "some refused" true (!total_refused > 0));
  ]

(* ----- subset-strong (§7) ------------------------------------------------------- *)

module T = Core.Treecheck
module Op = Core.Op

let op ?responded ?result ~id ~proc ~kind ~invoked () =
  Op.make ~id ~proc ~obj:"R" ~kind ~invoked ?responded ?result ()

let w ?responded ~id ~proc ~invoked v =
  op ~id ~proc ~kind:(Op.Write (V.Int v)) ~invoked ?responded ()

let r ~id ~proc ~invoked ~responded v =
  op ~id ~proc ~kind:Op.Read ~invoked ~responded ~result:(V.Int v) ()

(* Figure 4's tree {G -> H1, H2} *)
let fig4_tree () =
  let f4 = Core.Scenario.fig4 () in
  T.node f4.T.g [ T.node f4.T.h1 []; T.node f4.T.h2 [] ]

let subset_tests =
  [
    tc "sel=is_write coincides with write_strong" (fun () ->
        let tree = fig4_tree () in
        let init = V.Int 0 in
        check_bool "same verdict" true
          (T.subset_strong ~init ~sel:Op.is_write tree
          = T.write_strong ~init tree));
    tc "sel=never is plain per-node linearizability" (fun () ->
        check_bool "accepts fig4 tree" true
          (T.subset_strong ~init:(V.Int 0) ~sel:(fun _ -> false)
             (fig4_tree ())));
    tc "fig4 tree IS read-strong (its reads are leaf-only)" (fun () ->
        check_bool "read_strong" true
          (T.read_strong ~init:(V.Int 0) (fig4_tree ())));
    tc "read-strong refuted when a pending read's position must flip"
      (fun () ->
        (* mirror image of the write-strong refutation: a complete read
           sandwiched by two resolutions of a concurrent read *)
        let wo = w ~id:1 ~proc:1 ~invoked:1 ~responded:4 100 in
        let rd = op ~id:2 ~proc:2 ~kind:Op.Read ~invoked:2 () in
        let r0 = r ~id:3 ~proc:3 ~invoked:5 ~responded:6 100 in
        let g = Hist.of_ops [ wo; rd; r0 ] in
        let h1 =
          Hist.of_ops
            [ wo; { rd with responded = Some 8; result = Some (V.Int 0) }; r0 ]
        in
        let w2 = w ~id:4 ~proc:1 ~invoked:7 ~responded:9 200 in
        let h2 =
          Hist.of_ops
            [
              wo;
              { rd with responded = Some 10; result = Some (V.Int 200) };
              r0;
              w2;
            ]
        in
        (* In H1, rd returns the initial value, so it linearizes before wo
           and hence before r0: read order (rd, r0).  In H2, rd returns
           w2's value and r0 completed before w2 began, so the read order
           is (r0, rd).  f(G)'s read order must contain the complete r0
           and be a prefix of both (rd, r0) and (r0, rd) — impossible.
           The write order, by contrast, only ever grows: [wo] then
           [wo, w2]. *)
        let tree = T.node g [ T.node h1 []; T.node h2 [] ] in
        check_bool "read_strong refuted" false
          (T.read_strong ~init:(V.Int 0) tree);
        check_bool "but write_strong fine" true
          (T.write_strong ~init:(V.Int 0) tree));
  ]

let suite =
  [
    ("weak_register", weak_tests);
    ("chaos", chaos_tests);
    ("subset_strong", subset_tests);
  ]
