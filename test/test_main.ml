(* Test entry point: one Alcotest section per library/module.  Property-
   based tests (QCheck) are registered as alcotest cases alongside the
   unit tests of the module they exercise. *)

let () =
  Alcotest.run "rlin"
    (Test_clocks.suite @ Test_history.suite @ Test_simkit.suite
   @ Test_adv_register.suite @ Test_registers.suite
   @ Test_weak_register.suite @ Test_lincheck.suite
   @ Test_treecheck.suite @ Test_alg3.suite @ Test_fstar.suite
   @ Test_game.suite @ Test_abd.suite @ Test_faults.suite @ Test_stable.suite
   @ Test_mwabd.suite
   @ Test_consensus.suite
   @ Test_obs.suite @ Test_pool.suite
   @ Test_check.suite @ Test_parcheck.suite @ Test_tracer.suite
   @ Test_serve.suite @ Test_fleet.suite @ Test_experiments.suite)
