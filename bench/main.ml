(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (printed as text tables) and runs Bechamel
   micro-benchmarks of the pipeline stages.

   Usage:
     bench/main.exe                          -- everything
     bench/main.exe fig3 table2              -- selected figures only
     bench/main.exe micro                    -- only the micro-benchmarks
     bench/main.exe fig3 --domains 4 --metrics
                                             -- fan the grid out over 4
                                                domains and report
                                                per-stage wall time *)

open Cmdliner
module Figures = Dpm_core.Figures
module Metrics = Dpm_util.Metrics
module Pool = Dpm_util.Pool
module Telemetry = Dpm_util.Telemetry

let available =
  [
    ("table1", Figures.table1);
    ("table2", Figures.table2);
    ("fig3", Figures.fig3);
    ("fig4", Figures.fig4);
    ("table3", Figures.table3);
    ("fig5", Figures.fig5);
    ("fig6", Figures.fig6);
    ("fig7", Figures.fig7);
    ("fig8", Figures.fig8);
    ("fig13", Figures.fig13);
    ("ext", Figures.extensions);
    ("ext-shared", Figures.shared_subsystem);
    ("ablation-knobs", Figures.knob_ablation);
    ("ablation-closed", Figures.closed_loop_ablation);
    ("fault-sweep", Figures.fault_sweep);
    ("fig3-degraded", fun () -> Figures.degraded_grid ());
  ]

(* Per-figure wall times, in run order — the BENCH snapshot's payload. *)
let timings : (string * float) list ref = ref []

let print_figure name f =
  let t0 = Metrics.now () in
  let figure =
    Telemetry.span Telemetry.global ("figure." ^ name) (fun () ->
        Figures.traced name f)
  in
  timings := (name, Metrics.now () -. t0) :: !timings;
  print_string figure.Figures.rendered;
  print_newline ()

(* --- Streaming-vs-materialized memory/throughput comparison ---

   A synthetic workload ~10× the largest figure-grid input (wupwise's
   ~24.6k requests): one 256 MB array of 4096 stripe units swept 64
   times through the default 1024-unit LRU cache, so every sweep misses
   on every unit — 262,144 I/O events.  The materialized path builds
   that whole event array before replaying; the streaming path fuses
   generate→replay in O(batch) chunks.  Both replays run with
   [retain_busy = false] (the engine's bounded-memory knob), and the
   results must be structurally identical.

   [Gc.top_heap_words] is process-monotonic, so the streaming phase runs
   FIRST and each phase's peak is the delta it adds — which is why this
   mode leads the default all-run and should come first in a manual
   figure list if its numbers are to mean anything. *)

let stream_source =
  {|# stream-synthetic: cache-thrashing sweeps, 262144 IOs
array G[512][64] : 8192
for s = 1 to 64 { for i = 0 to 511 { for j = 0 to 63 { use G[i][j] work 400 } } }
|}

(* The JSON snapshot's "stream" section, filled by [stream_mode]. *)
let stream_section : (string * Dpm_util.Json.t) list ref = ref []

let vm_hwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              String.sub line 6 (String.length line - 6)
              |> String.trim
              |> fun s ->
              Scanf.sscanf_opt s "%d" (fun kb -> kb)
            else scan ()
      in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

let stream_mode () =
  let open Dpm_util.Json in
  let p = Dpm_ir.Parser.program ~name:"stream-synthetic" stream_source in
  let plan = Dpm_workloads.Suite.default_plan p in
  let config = Dpm_sim.Config.make ~retain_busy:false () in
  let t_total0 = Metrics.now () in
  Gc.compact ();
  let heap0 = (Gc.quick_stat ()).Gc.top_heap_words in
  let t0 = Metrics.now () in
  let r_stream =
    Dpm_sim.Engine.run_stream ~config Dpm_sim.Policy.base
      (Dpm_trace.Generate.stream p plan)
  in
  let stream_s = Metrics.now () -. t0 in
  let heap1 = (Gc.quick_stat ()).Gc.top_heap_words in
  let t1 = Metrics.now () in
  let trace = Dpm_trace.Generate.run p plan in
  let r_mat = Dpm_sim.Engine.run ~config Dpm_sim.Policy.base trace in
  let mat_s = Metrics.now () -. t1 in
  let heap2 = (Gc.quick_stat ()).Gc.top_heap_words in
  timings := ("stream", Metrics.now () -. t_total0) :: !timings;
  let word = Sys.word_size / 8 in
  let stream_bytes = (heap1 - heap0) * word in
  let mat_bytes = (heap2 - heap1) * word in
  let requests = Dpm_sim.Result.requests r_mat in
  let rps s = float_of_int requests /. s in
  let identical = r_stream = r_mat in
  (* O(batch), not O(trace): the fused pipeline must peak in a fraction
     of the materialized path's memory. *)
  let bounded = mat_bytes > 0 && stream_bytes * 4 <= mat_bytes in
  print_endline
    "== Streaming vs materialized (synthetic 262144-request workload) ==";
  Printf.printf "  %-13s %12s %14s %14s\n" "path" "time(s)" "requests/s"
    "peak-heap(MB)";
  Printf.printf "  %-13s %12.3f %14.0f %14.2f\n" "streaming" stream_s
    (rps stream_s)
    (float_of_int stream_bytes /. 1048576.0);
  Printf.printf "  %-13s %12.3f %14.0f %14.2f\n" "materialized" mat_s
    (rps mat_s)
    (float_of_int mat_bytes /. 1048576.0);
  (match vm_hwm_kb () with
  | Some kb -> Printf.printf "  process VmHWM: %d kB\n" kb
  | None -> ());
  Printf.printf "  results identical: %b, memory bounded (<=1/4): %b\n"
    identical bounded;
  stream_section :=
    [
      ( "stream",
        Obj
          [
            ("requests", Int requests);
            ("batch", Int Dpm_trace.Trace.Stream.default_batch);
            ( "streaming",
              Obj
                [
                  ("seconds", Float stream_s);
                  ("requests_per_s", Float (rps stream_s));
                  ("peak_heap_bytes", Int stream_bytes);
                ] );
            ( "materialized",
              Obj
                [
                  ("seconds", Float mat_s);
                  ("requests_per_s", Float (rps mat_s));
                  ("peak_heap_bytes", Int mat_bytes);
                ] );
            ("identical", Bool identical);
            ("bounded", Bool bounded);
          ] );
    ];
  if identical && bounded then 0
  else begin
    Dpm_util.Log.error ~scope:"bench"
      ~kv:
        [
          ("identical", string_of_bool identical);
          ("bounded", string_of_bool bounded);
          ("stream_bytes", string_of_int stream_bytes);
          ("mat_bytes", string_of_int mat_bytes);
        ]
      "streaming equivalence/memory assertion failed";
    1
  end

(* --- Fast-core throughput gate ---

   Replays the same 262k-request synthetic workload through both engine
   cores — the record-at-a-time reference body and the specialized
   structure-of-arrays loop — for one policy of each specialization
   kind.  Reports events/sec, the fast/reference speedup, and the fast
   core's minor-heap allocations per event (Gc.minor_words deltas), and
   asserts the two cores return structurally identical results.  A
   trace-gen row does the same for trace generation: the compiled walk
   against the interpreted Enumerate oracle on mgrid.  With
   [--baseline FILE] it additionally compares against committed floors
   (see test/golden/bench_baseline.json) and fails on a >25%
   events/sec or speedup regression — the `make perf-check` CI gate. *)

let throughput_section : (string * Dpm_util.Json.t) list ref = ref []

let throughput_mode ~baseline () =
  let open Dpm_util.Json in
  let p = Dpm_ir.Parser.program ~name:"stream-synthetic" stream_source in
  let plan = Dpm_workloads.Suite.default_plan p in
  let trace = Dpm_trace.Generate.run p plan in
  let events = Dpm_trace.Trace.event_count trace in
  let ndisks = Dpm_trace.Trace.ndisks trace in
  let config = Dpm_sim.Config.make ~retain_busy:false () in
  (* Policies are created fresh per replay: the reactive ones (DRPM)
     carry mutable controller state that must not leak across runs.
     The scheduler rows replay Base under each non-FCFS discipline:
     both cores route through the deferred-dispatch engine there, so
     their speedup hovers around 1.0 — the floor guards the scheduler's
     absolute events/sec, not a fast-core ratio. *)
  let sched cfg s = Dpm_sim.Config.with_sched s cfg in
  (* The Base+meter row replays Base with a timeline sink and a
     streaming power meter attached — the gate on the meter's own
     overhead.  Its floor in bench_baseline.json keeps the metered path
     within the same order of magnitude as the bare fast core. *)
  let schemes =
    [
      ("Base", config, false, fun () -> Dpm_sim.Policy.base);
      ("Base+meter", config, true, fun () -> Dpm_sim.Policy.base);
      ("TPM", config, false, fun () -> Dpm_sim.Policy.tpm config);
      ("DRPM", config, false, fun () -> Dpm_sim.Policy.drpm config ~ndisks);
      ("CMDRPM", config, false, fun () -> Dpm_sim.Policy.cm_drpm);
      ( "SSTF",
        sched config Dpm_sim.Config.Sstf,
        false,
        fun () -> Dpm_sim.Policy.base );
      ( "SCAN",
        sched config Dpm_sim.Config.Scan,
        false,
        fun () -> Dpm_sim.Policy.base );
      ( "C-LOOK",
        sched config Dpm_sim.Config.Clook,
        false,
        fun () -> Dpm_sim.Policy.base );
      ( "SSTF-R",
        sched config Dpm_sim.Config.Sstf_remap,
        false,
        fun () -> Dpm_sim.Policy.base );
    ]
  in
  let replay ?(meter = false) config core policy =
    if meter then begin
      let sink = Dpm_sim.Timeline.sink () in
      let m =
        Dpm_sim.Meter.create ~resolution:0.5
          ~specs:config.Dpm_sim.Config.specs ~capacity:4096 ()
      in
      Dpm_sim.Meter.attach m sink;
      let r =
        Dpm_sim.Engine.run_stream ~config ~core ~timeline:sink (policy ())
          (Dpm_trace.Trace.Stream.of_trace trace)
      in
      Dpm_sim.Meter.finish m;
      ignore (Dpm_sim.Meter.integral m);
      r
    end
    else
      Dpm_sim.Engine.run_stream ~config ~core (policy ())
        (Dpm_trace.Trace.Stream.of_trace trace)
  in
  let time_runs n ?meter config core policy =
    let t0 = Metrics.now () in
    let last = ref (replay ?meter config core policy) in
    for _ = 2 to n do
      last := replay ?meter config core policy
    done;
    ((Metrics.now () -. t0) /. float_of_int n, !last)
  in
  let t_total0 = Metrics.now () in
  print_endline
    "== Replay core throughput (synthetic 262144-event workload) ==";
  Printf.printf "  %-10s %12s %12s %9s %12s %10s\n" "scheme" "ref-ev/s"
    "fast-ev/s" "speedup" "words/event" "identical";
  let all_identical = ref true in
  let rows =
    List.map
      (fun (name, config, meter, policy) ->
        (* Warm both cores once (page in the trace, settle the GC). *)
        ignore (replay ~meter config `Reference policy);
        ignore (replay ~meter config `Fast policy);
        let ref_s, r_ref = time_runs 2 ~meter config `Reference policy in
        let minor0 = Gc.minor_words () in
        let fast_s, r_fast = time_runs 10 ~meter config `Fast policy in
        let minor1 = Gc.minor_words () in
        let identical = r_ref = r_fast in
        if not identical then all_identical := false;
        let fev = float_of_int events in
        let ref_eps = fev /. ref_s in
        let fast_eps = fev /. fast_s in
        let speedup = fast_eps /. ref_eps in
        let words_per_event = (minor1 -. minor0) /. (fev *. 10.0) in
        Printf.printf "  %-10s %12.0f %12.0f %8.1fx %12.3f %10b\n" name ref_eps
          fast_eps speedup words_per_event identical;
        ( name,
          Obj
            [
              ("reference_eps", Float ref_eps);
              ("fast_eps", Float fast_eps);
              ("speedup", Float speedup);
              ("minor_words_per_event", Float words_per_event);
              ("identical", Bool identical);
            ] ))
      schemes
  in
  (* Trace generation: mgrid, the suite's largest iteration space,
     through the compiled walk ([Generate.run]) and through the
     interpreted Enumerate oracle on the same program.  [fast_eps] is
     the compiled walk's events/sec, [speedup] its ratio over the
     oracle; both must produce the same events. *)
  let gen_row =
    let p, plan =
      Dpm_core.Experiment.workload (Dpm_workloads.Suite.find "mgrid")
    in
    let config =
      {
        Dpm_trace.Generate.default_config with
        cache_blocks = Dpm_workloads.Suite.cache_blocks;
      }
    in
    let walk () = Dpm_trace.Generate.run ~config p plan in
    ignore (walk ());
    let t0 = Metrics.now () in
    let oracle_events, oracle_tail = Walk_oracle.generate ~config p plan in
    let ref_s = Metrics.now () -. t0 in
    let runs = 10 in
    let minor0 = Gc.minor_words () and t0 = Metrics.now () in
    for _ = 2 to runs do
      ignore (walk ())
    done;
    let trace = walk () in
    let fast_s = (Metrics.now () -. t0) /. float_of_int runs in
    let minor1 = Gc.minor_words () in
    let identical =
      Array.to_list (Dpm_trace.Trace.events trace) = oracle_events
      && Dpm_trace.Trace.tail_think trace = oracle_tail
    in
    if not identical then all_identical := false;
    let fev = float_of_int (Dpm_trace.Trace.event_count trace) in
    let fast_eps = fev /. fast_s and ref_eps = fev /. ref_s in
    let words_per_event = (minor1 -. minor0) /. (fev *. float_of_int runs) in
    Printf.printf
      "== Trace generation (mgrid, %.0f events): compiled walk vs Enumerate \
       oracle ==\n"
      fev;
    Printf.printf "  %-10s %12.0f %12.0f %8.1fx %12.3f %10b\n" "trace-gen"
      ref_eps fast_eps (fast_eps /. ref_eps) words_per_event identical;
    ( "trace-gen",
      Obj
        [
          ("reference_eps", Float ref_eps);
          ("fast_eps", Float fast_eps);
          ("speedup", Float (fast_eps /. ref_eps));
          ("minor_words_per_event", Float words_per_event);
          ("identical", Bool identical);
        ] )
  in
  let rows = rows @ [ gen_row ] in
  timings := ("throughput", Metrics.now () -. t_total0) :: !timings;
  throughput_section :=
    [
      ( "throughput",
        Obj
          [
            ("events", Int events);
            ("schemes", Obj rows);
            ("identical", Bool !all_identical);
          ] );
    ];
  let rc = if !all_identical then 0 else 1 in
  if rc <> 0 then
    Dpm_util.Log.error ~scope:"bench"
      "fast and reference cores (or the compiled walk and its oracle) \
       disagree on the throughput workload";
  (* Baseline comparison: fail on >25% regression against the committed
     floors, for events/sec (machine-dependent — the floors are set
     conservatively) and for the fast/reference speedup (machine-
     independent). *)
  match baseline with
  | None -> rc
  | Some path -> (
      let doc =
        let ic = open_in path in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        match Dpm_util.Json.parse_string s with
        | Ok doc -> doc
        | Error m -> failwith (Printf.sprintf "%s: %s" path m)
      in
      let tolerance =
        match Option.bind (member "tolerance" doc) to_float with
        | Some t -> t
        | None -> 0.75
      in
      let floors =
        match member "schemes" doc with
        | Some s -> s
        | None -> failwith (path ^ ": missing schemes object")
      in
      let failures = ref [] in
      List.iter
        (fun (name, row) ->
          match member name floors with
          | None -> ()
          | Some floor ->
              let get field doc =
                match Option.bind (member field doc) to_float with
                | Some v -> v
                | None ->
                    failwith
                      (Printf.sprintf "%s: %s.%s missing" path name field)
              in
              let check field =
                let current = get field row in
                let base = get field floor in
                if current < tolerance *. base then
                  failures :=
                    Printf.sprintf "%s.%s: %.0f < %.2f x %.0f" name field
                      current tolerance base
                    :: !failures
              in
              check "fast_eps";
              check "speedup")
        rows;
      match !failures with
      | [] ->
          Printf.printf "  baseline check: ok (vs %s, tolerance %.2f)\n" path
            tolerance;
          rc
      | fs ->
          List.iter
            (fun f ->
              Dpm_util.Log.error ~scope:"bench"
                ~kv:[ ("violation", f) ]
                "throughput regression vs committed baseline")
            fs;
          1)

(* --- Auto-tuning sweep: the Adaptive controller vs the grid ---

   A small thresholds x tolerances grid over two suite workloads,
   checking the ISSUE's acceptance property as a bench gate: the online
   Adaptive controller must beat the best fixed-threshold TPM energy on
   at least one workload while staying above the IDRPM oracle bound on
   every cell. *)

let sweep_section : (string * Dpm_util.Json.t) list ref = ref []

let sweep_mode () =
  let open Dpm_util.Json in
  let module Sweep = Dpm_core.Sweep in
  let module Scheme = Dpm_core.Scheme in
  let axes =
    [
      Sweep.Tpm_threshold [ 4.0; 15.2 ];
      Sweep.Drpm_lower [ 0.02; 0.08 ];
    ]
  in
  let workloads = [ "swim"; "galgel" ] in
  let t0 = Metrics.now () in
  match Sweep.run ~axes ~workloads () with
  | Error e ->
      Dpm_util.Log.error ~scope:"bench"
        ~kv:[ ("error", Dpm_core.Run.error_message e) ]
        "sweep failed";
      1
  | Ok outcome ->
      print_string (Sweep.render outcome);
      let energy scheme (cell : Sweep.cell) =
        (List.assoc scheme cell.Sweep.results).Dpm_sim.Result.energy
      in
      (* Best fixed-TPM and best Adaptive energy per workload, off the
         same grid. *)
      let best_of scheme workload =
        List.fold_left
          (fun acc (w, s, cell, _) ->
            if w = workload && s = scheme then
              Float.min acc (energy scheme cell)
            else acc)
          infinity (Sweep.best outcome)
      in
      let adaptive_beats_tpm =
        List.filter
          (fun w -> best_of Scheme.Adaptive w < best_of Scheme.Tpm w)
          workloads
      in
      let above_oracle =
        List.for_all
          (fun (cell : Sweep.cell) ->
            energy Scheme.Adaptive cell >= energy Scheme.Idrpm cell -. 1e-6)
          outcome.Sweep.cells
      in
      let rc = if adaptive_beats_tpm <> [] && above_oracle then 0 else 1 in
      if rc <> 0 then
        Dpm_util.Log.error ~scope:"bench"
          ~kv:
            [
              ( "adaptive_beats_tpm",
                String.concat "," adaptive_beats_tpm );
              ("above_oracle", string_of_bool above_oracle);
            ]
          "adaptive policy failed the sweep acceptance gate"
      else
        Printf.printf
          "  sweep gate: ok (Adaptive beats fixed TPM on %s; above the \
           oracle bound on all %d cells)\n"
          (String.concat ", " adaptive_beats_tpm)
          (List.length outcome.Sweep.cells);
      timings := ("sweep", Metrics.now () -. t0) :: !timings;
      sweep_section :=
        [
          ( "sweep",
            Obj
              [
                ("cells", Int (List.length outcome.Sweep.cells));
                ( "adaptive_beats_tpm",
                  Arr (List.map (fun w -> Str w) adaptive_beats_tpm) );
                ("above_oracle", Bool above_oracle);
                ("doc", Sweep.to_json outcome);
              ] );
        ];
      rc

(* --- Bechamel micro-benchmarks: one per pipeline stage --- *)

let micro () =
  let open Bechamel in
  let spec = Dpm_workloads.Suite.find "galgel" in
  let program = Dpm_workloads.Suite.program spec in
  let plan = Dpm_workloads.Suite.default_plan program in
  let specs = Dpm_sim.Config.default.Dpm_sim.Config.specs in
  let trace = Dpm_trace.Generate.run program plan in
  let source = spec.Dpm_workloads.Suite.source () in
  let tests =
    [
      Test.make ~name:"parse-galgel"
        (Staged.stage (fun () ->
             ignore (Dpm_ir.Parser.program ~name:"galgel" source)));
      Test.make ~name:"access-analysis"
        (Staged.stage (fun () ->
             ignore (Dpm_compiler.Access.of_program_cached program plan)));
      Test.make ~name:"timing-profile"
        (Staged.stage (fun () ->
             ignore (Dpm_compiler.Estimate.profile ~specs program plan)));
      Test.make ~name:"trace-generation"
        (Staged.stage (fun () -> ignore (Dpm_trace.Generate.run program plan)));
      Test.make ~name:"replay-base"
        (Staged.stage (fun () ->
             ignore (Dpm_sim.Engine.run Dpm_sim.Policy.base trace)));
      Test.make ~name:"compile-cmdrpm"
        (Staged.stage (fun () ->
             ignore
               (Dpm_compiler.Pipeline.compile
                  ~scheme:Dpm_compiler.Insertion.Drpm ~specs program plan)));
    ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) () in
  print_endline "== Micro-benchmarks (pipeline stages on galgel) ==";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      Hashtbl.iter
        (fun name m ->
          let stats =
            Analyze.one
              (Analyze.ols ~bootstrap:0 ~r_square:false
                 ~predictors:[| Measure.run |])
              Toolkit.Instance.monotonic_clock m
          in
          match Analyze.OLS.estimates stats with
          | Some [ t ] -> Printf.printf "  %-22s %12.1f ns/run\n%!" name t
          | Some _ | None -> Printf.printf "  %-22s (no estimate)\n%!" name)
        results)
    tests

(* --- CLI --- *)

let figures_arg =
  let doc =
    "Figures/tables to regenerate (default: all plus the \
     micro-benchmarks).  $(b,micro) selects the Bechamel \
     micro-benchmarks; $(b,stream) the streaming-vs-materialized \
     memory/throughput comparison (run it first — or alone — for \
     meaningful peak-heap deltas); $(b,throughput) the fast-vs-reference \
     replay-core comparison with allocation accounting."
  in
  Arg.(value & pos_all string [] & info [] ~doc ~docv:"FIGURE")

let baseline_arg =
  let doc =
    "Committed throughput floor (JSON with a $(b,schemes) object of \
     $(b,fast_eps)/$(b,speedup) floors and an optional $(b,tolerance), \
     default 0.75).  Only meaningful with the $(b,throughput) figure: \
     exits non-zero on a regression beyond the tolerance — the \
     $(b,make perf-check) gate."
  in
  Arg.(value & opt (some file) None & info [ "baseline" ] ~doc ~docv:"FILE")

let domains_arg =
  let doc =
    "Number of domains the experiment grids fan out over (default: the \
     runtime's recommended count, or $(b,DPM_DOMAINS)).  Results are \
     bit-identical whatever the value."
  in
  Arg.(value & opt (some int) None & info [ "d"; "domains" ] ~doc ~docv:"N")

let metrics_arg =
  let doc =
    "Collect and print per-stage wall time (workload build, compile, \
     trace generation, replay) and throughput counters."
  in
  Arg.(value & flag & info [ "m"; "metrics" ] ~doc)

let json_arg =
  let doc =
    "Write a machine-readable benchmark snapshot (schema dpm-bench/1): \
     per-figure wall times plus the stage/counter tables — the repo's \
     perf-trajectory artifact, uploaded by CI."
  in
  Arg.(value & opt (some string) None & info [ "json" ] ~doc ~docv:"FILE")

let trace_arg =
  let doc =
    "Record hierarchical spans (each figure, its pool tasks, every \
     compile/generate/replay underneath) and write Chrome trace_event \
     JSON for Perfetto or chrome://tracing."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~doc ~docv:"FILE")

let log_level_arg =
  let doc = "Structured-log threshold: error, warn, info or debug." in
  let level_conv =
    Arg.conv
      ( (fun s ->
          match Dpm_util.Log.level_of_string s with
          | Ok l -> Ok l
          | Error m -> Error (`Msg m)),
        fun ppf l -> Format.pp_print_string ppf (Dpm_util.Log.level_name l) )
  in
  Arg.(
    value & opt (some level_conv) None & info [ "log-level" ] ~doc ~docv:"LEVEL")

let run names domains metrics json trace log_level baseline =
  Option.iter Pool.set_default_domains domains;
  Option.iter Dpm_util.Log.set_level log_level;
  (* The snapshot embeds the stage table, so --json implies --metrics. *)
  if metrics || json <> None then Telemetry.(set_metrics global true);
  if trace <> None then Telemetry.(set_tracing global true);
  let total0 = Metrics.now () in
  let rc =
    match names with
    | [] ->
        (* stream first: its peak-heap deltas need a fresh process
           baseline (see [stream_mode]). *)
        let rc = stream_mode () in
        let rc = max rc (throughput_mode ~baseline ()) in
        let rc = max rc (sweep_mode ()) in
        List.iter (fun (name, f) -> print_figure name f) available;
        micro ();
        rc
    | names ->
        List.fold_left
          (fun rc name ->
            if String.equal name "micro" then begin
              micro ();
              rc
            end
            else if String.equal name "stream" then max rc (stream_mode ())
            else if String.equal name "throughput" then
              max rc (throughput_mode ~baseline ())
            else if String.equal name "sweep" then max rc (sweep_mode ())
            else
              match List.assoc_opt name available with
              | Some f ->
                  print_figure name f;
                  rc
              | None ->
                  Dpm_util.Log.error ~scope:"bench"
                    ~kv:
                      [
                        ("figure", name);
                        ( "available",
                          String.concat " " (List.map fst available)
                          ^ " stream throughput sweep micro" );
                      ]
                    "unknown figure";
                  2)
          0 names
  in
  if metrics then begin
    Printf.printf "total wall time: %.3f s (domains=%d)\n"
      (Metrics.now () -. total0)
      (Pool.default_domains ());
    print_string Telemetry.(metrics_report global)
  end;
  (match json with
  | None -> ()
  | Some path ->
      let doc =
        Dpm_core.Report.bench_snapshot
          ~extra:(!stream_section @ !throughput_section @ !sweep_section)
          ~figures:(List.rev !timings) ()
      in
      (match Dpm_core.Report.validate_bench doc with
      | Ok () -> ()
      | Error msgs ->
          List.iter (fun m -> Dpm_util.Log.error ~scope:"bench" m) msgs);
      let oc = open_out path in
      Dpm_util.Json.to_channel ~indent:1 oc doc;
      output_char oc '\n';
      close_out oc;
      Dpm_util.Log.info ~scope:"bench"
        ~kv:[ ("file", path) ]
        "wrote benchmark snapshot");
  (match trace with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      Telemetry.(write_chrome_trace global) oc;
      close_out oc;
      Dpm_util.Log.info ~scope:"bench"
        ~kv:[ ("file", path) ]
        "wrote Chrome trace");
  rc

let () =
  let doc =
    "Regenerate the paper's tables and figures, with optional \
     multi-domain fan-out, per-stage metrics, Chrome traces and \
     machine-readable snapshots."
  in
  let info = Cmd.info "dpm-bench" ~doc in
  exit
    (Cmd.eval'
       (Cmd.v info
          Term.(
            const run $ figures_arg $ domains_arg $ metrics_arg $ json_arg
            $ trace_arg $ log_level_arg $ baseline_arg)))
