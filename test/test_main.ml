let () =
  Alcotest.run "bintuner"
    [
      ("util", Test_util.tests);
      ("sat", Test_sat.tests);
      ("compress", Test_compress.tests);
      ("lz-properties", Test_lz_properties.tests);
      ("minic", Test_minic.tests);
      ("isa", Test_isa.tests);
      ("passes", Test_passes.tests);
      ("opt-passes", Test_opt_passes.tests);
      ("analysis", Test_analysis.tests);
      ("compiler", Test_compiler.tests);
      ("diffing", Test_diffing.tests);
      ("tuner", Test_tuner.tests);
      ("search", Test_search.tests);
      ("parallel", Test_parallel.tests);
      ("telemetry", Test_telemetry.tests);
      ("cache", Test_cache.tests);
      ("store", Test_store.tests);
      ("serve", Test_serve.tests);
      ("fuzz", Test_fuzz.tests);
      ("incremental", Frozen_incremental.tests);
      ("frozen-passes", Frozen_passes.tests);
      ("frozen-loops", Frozen_loops.tests);
      ("frozen-values", Frozen_values.tests);
      ("frozen-cfg", Frozen_cfg.tests);
      ("flags", Test_flags.tests);
      ("vm", Test_vm.tests);
      ("frozen-vm", Frozen_vm.tests);
      ("obf", Test_obf.tests);
      ("corpus", Test_corpus.tests);
      ("binsight", Test_binsight.tests);
    ]
