(* The per-layer metrics of a traced run.  Every workload reports the
   same names; a layer the workload does not exercise reads 0.  Times
   and counts are per traced pass ([passes] of them). *)

open Common

let benchmarks =
  List.map (fun (s : Dpm_workloads.Suite.spec) -> s.name) Dpm_workloads.Suite.all

(* Names measured outside the span totals (the workload supplies them
   through [extra]), with their units. *)
let supplied =
  [
    ("core.pool_speedup", "ratio");
    ("core.critical_task_s", "s");
    ("core.critical_task_frac", "ratio");
    ("bench.trace_overhead_frac", "ratio");
  ]
  @ List.map (fun b -> ("core.task_s." ^ b, "s")) benchmarks
  @ [
    ("core.report_s", "s");
    ("core.json_mb_per_s", "MB/s");
    ("trace.merge_eps", "1/s");
    ("service.accept_ms.p50", "ms");
    ("service.accept_ms.p90", "ms");
    ("service.exec_ms.p50", "ms");
    ("service.exec_ms.p90", "ms");
    ("service.conn_wait_ms.p90", "ms");
    ("service.rejected", "count");
    ("service.sample_frames", "count");
    ("service.frame_decode_s", "s");
  ]

let replay_schemes = [ "base"; "tpm"; "drpm"; "cmdrpm"; "adaptive" ]

let rate items seconds = if seconds > 0.0 then float_of_int items /. seconds else 0.0
let per items words = if items > 0 then words /. float_of_int items else 0.0

let metrics ~passes ~fallbacks ~extra spans =
  let n = float_of_int (max passes 1) in
  let seconds prefix =
    let t, _, _, _ = Tracer.total prefix spans in
    t /. n
  in
  let eps prefix =
    let t, _, items, _ = Tracer.total prefix spans in
    rate items t
  in
  let words prefix =
    let _, _, items, w = Tracer.total prefix spans in
    per items w
  in
  let calls prefix =
    let _, c, _, _ = Tracer.total prefix spans in
    float_of_int c /. n
  in
  let by_layer = Tracer.self_by_layer spans in
  let busy = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 by_layer in
  let from_spans =
    [
      metric "ir.parse_s" (seconds "ir.parse") "s";
      metric "workloads.build_s" (seconds "workloads.build") "s";
      metric "compiler.access_s" (seconds "compiler.access") "s";
      metric "compiler.estimate_s" (seconds "compiler.estimate") "s";
      metric "compiler.compile_s" (seconds "compiler.compile") "s";
      metric "compiler.calls"
        (calls "compiler.access" +. calls "compiler.estimate")
        "count";
      metric "trace.gen_s" (seconds "trace.gen") "s";
      metric "trace.gen_eps" (eps "trace.gen") "1/s";
      metric "trace.gen_words_per_event" (words "trace.gen") "words";
      metric "trace.parse_s" (seconds "trace.parse") "s";
      metric "trace.parse_eps" (eps "trace.parse") "1/s";
      metric "trace.parse_words_per_event" (words "trace.parse") "words";
    ]
    @ List.map
        (fun s -> metric ("sim.replay_eps." ^ s) (eps ("sim.replay." ^ s)) "1/s")
        replay_schemes
    @ [
        metric "sim.replay_s" (seconds "sim.replay.") "s";
        metric "sim.replay_words_per_event" (words "sim.replay.") "words";
        metric "sim.sched_eps" (eps "sim.sched.") "1/s";
        metric "sim.meter_eps" (eps "sim.meter.") "1/s";
        metric "sim.meter_words_per_event" (words "sim.meter.") "words";
        metric "sim.oracle_s" (seconds "sim.oracle") "s";
        metric "sim.fallbacks" (float_of_int fallbacks /. n) "count";
      ]
    @ List.concat_map
        (fun (layer, self) ->
          [
            metric ("stage." ^ layer ^ "_self_s") (self /. n) "s";
            metric
              ("stage." ^ layer ^ "_frac")
              (if busy > 0.0 then self /. busy else 0.0)
              "ratio";
          ])
        by_layer
  in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name supplied) then
        invalid_arg ("Layers.metrics: unknown metric " ^ name))
    extra;
  from_spans
  @ List.map
      (fun (name, unit) ->
        metric name (Option.value ~default:0.0 (List.assoc_opt name extra)) unit)
      supplied
