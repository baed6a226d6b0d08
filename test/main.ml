(* Aggregates all suites; one alcotest binary run by `dune runtest`. *)

let () =
  Alcotest.run "dpm"
    (Test_util.suite @ Test_ir.suite @ Test_layout.suite @ Test_cache.suite
   @ Test_disk.suite @ Test_trace.suite @ Test_sim.suite @ Test_compiler.suite
   @ Test_workloads.suite @ Test_core.suite @ Test_parallel.suite
   @ Test_fault.suite @ Test_oracle.suite @ Test_timeline.suite
   @ Test_golden.suite @ Test_telemetry.suite @ Test_stream.suite
   @ Test_fastpath.suite @ Test_sweep.suite @ Test_sched.suite
   @ Test_meter.suite @ Test_openloop.suite @ Test_serve.suite
   @ Test_walk.suite)
