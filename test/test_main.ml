(* Aggregated test runner for the whole reproduction. *)

let () =
  Alcotest.run "minesweeper-repro"
    [
      Test_rng.suite;
      Test_dist.suite;
      Test_arrival.suite;
      Test_clock_sampler.suite;
      Test_machine.suite;
      Test_vmem.suite;
      Test_size_class.suite;
      Test_extent.suite;
      Test_jemalloc.suite;
      Test_model.suite;
      Test_shadow.suite;
      Test_quarantine.suite;
      Test_config.suite;
      Test_obs.suite;
      Test_instance.suite;
      Test_sweep_equiv.suite;
      Test_parsweep.suite;
      Test_pipeline.suite;
      Test_realloc.suite;
      Test_event_log.suite;
      Test_markus.suite;
      Test_ffmalloc.suite;
      Test_scudo.suite;
      Test_dlmalloc.suite;
      Test_ptrtrack.suite;
      Test_workloads.suite;
      Test_trace.suite;
      Test_server.suite;
      Test_runners.suite;
      Test_fleet.suite;
      Test_sanitizer.suite;
      Test_racecheck.suite;
      Test_attack.suite;
      Test_report.suite;
      Test_experiments.suite;
      Test_flowcheck.suite;
      Test_poolalloc.suite;
      Test_siteflow.suite;
    ]
