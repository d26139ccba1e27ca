let () =
  Alcotest.run "mcmap"
    [ ("util", Test_util.suite);
      ("obs", Test_obs.suite);
      ("model", Test_model.suite);
      ("hardening", Test_hardening.suite);
      ("reliability", Test_reliability.suite);
      ("campaign", Test_campaign.suite);
      ("sched", Test_sched.suite);
      ("flat_make", Test_flat_make.suite);
      ("analysis", Test_analysis.suite);
      ("sim", Test_sim.suite);
      ("dse", Test_dse.suite);
      ("benchmarks", Test_benchmarks.suite);
      ("benchkit", Test_benchkit.suite);
      ("spec", Test_spec.suite);
      ("sexp", Test_sexp.suite);
      ("lint", Test_lint.suite);
      ("floor", Test_floor.suite);
      ("experiments", Test_experiments.suite);
      ("check", Test_check.suite);
      ("serve", Test_serve.suite) ]
