(* Aggregated test runner: one Alcotest suite per library. *)

let () =
  Alcotest.run "c4"
    [
      ("dsim.heap", Test_heap.tests);
      ("dsim.rng", Test_rng.tests);
      ("dsim.fifo", Test_fifo.tests);
      ("dsim.sim", Test_sim.tests);
      ("dsim.process", Test_process.tests);
      ("stats", Test_stats.tests);
      ("obs", Test_obs.tests);
      ("workload", Test_workload.tests);
      ("kvs", Test_kvs.tests);
      ("cache", Test_cache.tests);
      ("nic", Test_nic.tests);
      ("consistency", Test_consistency.tests);
      ("model", Test_model.tests);
      ("model.validation", Test_validation.tests);
      ("model.pserver", Test_pserver.tests);
      ("facade", Test_c4_facade.tests);
      ("integration", Test_integration.tests);
      ("runtime", Test_runtime.tests);
      ("wal", Test_wal.tests);
      ("resilience", Test_resilience.tests);
      ("analysis", Test_analysis.tests);
      ("cluster", Test_cluster.tests);
      ("extensions", Test_extensions.tests);
      ("size_aware", Test_size_aware.tests);
      ("crew", Test_crew.tests);
      ("check", Test_check.tests);
      ("check.static", Test_static.tests);
      ("net", Test_net.tests);
      ("alloc", Test_alloc.tests);
      ("clusterd", Test_clusterd.tests);
    ]
