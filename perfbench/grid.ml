(* paper-grid: the Figure 3 grid (6 suite benchmarks x 7 schemes), a
   closed batch at [nproc] domains.

   Untraced passes call [Figures.fig3] — the same call as [bench fig3].
   The traced pass re-composes the same grid from the public calls that
   [Experiment.workload] and [Experiment.run_all] make (parse, plan,
   calibrate, transform, generate, replay, oracle, compile), with a
   span around each; its rendered table must equal the golden too, so
   the re-composition cannot drift from the real pipeline unnoticed. *)

open Common
module Sim = Dpm_sim
module Compiler = Dpm_compiler
module Trace = Dpm_trace
module Suite = Dpm_workloads.Suite
module Scheme = Dpm_core.Scheme
module Experiment = Dpm_core.Experiment
module Pool = Dpm_util.Pool
module Table = Dpm_util.Table

let golden = "test/golden/fig3.expected"

let untraced_pass ~domains expected =
  Pool.set_default_domains domains;
  let figure = Dpm_core.Figures.fig3 () in
  String.equal figure.Dpm_core.Figures.rendered expected

(* --- traced re-composition -------------------------------------- *)

let fallbacks = Atomic.make 0

(* One replay, with the fast-core support question asked from outside
   first: an unsupported configuration/policy pair falls back to the
   reference body. *)
let replay ~(setup : Experiment.setup) ?timeline ?(span = "sim.replay.") name
    policy stream =
  if not (Sim.Fastpath.supported ~config:setup.sim policy) then
    Atomic.incr fallbacks;
  Tracer.span (span ^ name)
    ~items:(fun r -> Sim.Result.requests r)
    (fun () ->
      Sim.Engine.run_stream ~config:setup.sim ~mode:setup.mode
        ~faults:setup.faults ?timeline ~core:setup.core policy stream)

let compile ~(setup : Experiment.setup) scheme p plan =
  let cache_blocks = setup.cache_blocks
  and specs = setup.sim.Sim.Config.specs in
  Tracer.span "compiler.compile" (fun () ->
      let activities =
        Tracer.span "compiler.access" (fun () ->
            Compiler.Access.of_program_cached ~cache_blocks p plan)
      in
      let exact =
        Tracer.span "compiler.estimate" (fun () ->
            Compiler.Estimate.profile ~cache_blocks ~specs p plan)
      in
      let estimate =
        if setup.noise = 0.0 then exact
        else
          Compiler.Estimate.perturb ~noise:setup.noise ~seed:setup.seed exact
      in
      let dap =
        Tracer.span "compiler.dap" (fun () ->
            Compiler.Dap.build activities estimate)
      in
      Tracer.span "compiler.insert" (fun () ->
          fst
            (Compiler.Insertion.insert ~specs
               ~pm_overhead:setup.sim.Sim.Config.pm_call_overhead
               ~pre_lead:setup.sim.Sim.Config.pre_activation_lead
               ~serve_slow:(setup.mode = `Open) scheme p dap estimate)))

let generate ~(setup : Experiment.setup) p plan =
  let config =
    { Trace.Generate.cost = Dpm_ir.Cost.default; cache_blocks = setup.cache_blocks }
  in
  Tracer.span "trace.gen" ~items:Trace.Trace.event_count (fun () ->
      Trace.Generate.run ~config p plan)

(* [Experiment.workload] then [Experiment.run_all], call by call.  The
   trace and the Base replay are shared, as there. *)
let run_benchmark (spec : Suite.spec) =
  let p = Tracer.span "ir.parse" (fun () -> Suite.program spec) in
  let p, plan =
    Tracer.span "workloads.build" (fun () ->
        let ndisks =
          Dpm_layout.Striping.default.Dpm_layout.Striping.stripe_factor
        in
        let plan = Suite.default_plan ~ndisks p in
        ( Suite.calibrate ~specs:Sim.Config.default.Sim.Config.specs
            ~target_exec:spec.exec_time_s p plan,
          plan ))
  in
  let setup = Experiment.make_setup ~noise:spec.noise () in
  let p, plan =
    Tracer.span "compiler.transform" (fun () ->
        Compiler.Pipeline.transform setup.version p plan)
  in
  let trace = lazy (generate ~setup p plan) in
  let stream () = Trace.Trace.Stream.of_trace ~batch:setup.batch (Lazy.force trace) in
  let ndisks = Dpm_layout.Plan.ndisks plan in
  let base = lazy (replay ~setup "base" Sim.Policy.base (stream ())) in
  let cfg = setup.sim in
  List.map
    (fun scheme ->
      ( scheme,
        match (scheme : Scheme.t) with
        | Base -> Lazy.force base
        | Tpm -> replay ~setup "tpm" (Sim.Policy.tpm cfg) (stream ())
        | Drpm -> replay ~setup "drpm" (Sim.Policy.drpm cfg ~ndisks) (stream ())
        | Adaptive ->
            replay ~setup "adaptive" (Sim.Policy.adaptive cfg ~ndisks) (stream ())
        | Itpm ->
            let b = Lazy.force base in
            Tracer.span "sim.oracle" (fun () -> Sim.Oracle.itpm ~config:cfg b)
        | Idrpm ->
            let b = Lazy.force base in
            Tracer.span "sim.oracle" (fun () -> Sim.Oracle.idrpm ~config:cfg b)
        | Cmtpm ->
            let p' = compile ~setup Compiler.Insertion.Tpm p plan in
            replay ~setup "cmtpm" Sim.Policy.cm_tpm
              (Trace.Trace.Stream.of_trace ~batch:setup.batch (generate ~setup p' plan))
        | Cmdrpm ->
            let p' = compile ~setup Compiler.Insertion.Drpm p plan in
            replay ~setup "cmdrpm" Sim.Policy.cm_drpm
              (Trace.Trace.Stream.of_trace ~batch:setup.batch (generate ~setup p' plan)) ))
    Scheme.all

(* The Figure 3 table, rendered as [Figures] renders it. *)
let render rows =
  let t =
    Table.create ~title:"Figure 3: Normalized energy consumption"
      ~columns:
        (("bench", Table.Left)
        :: List.map (fun s -> (Scheme.name s, Table.Right)) Scheme.all)
  in
  List.iter
    (fun ((spec : Suite.spec), results) ->
      let base = List.assoc Scheme.Base results in
      Table.add_row t
        (spec.name
        :: List.map
             (fun s ->
               Table.cell_f3
                 (Sim.Result.normalized_energy (List.assoc s results) ~base))
             Scheme.all))
    rows;
  Table.render t

(* One traced pass; returns whether the table matched and each
   benchmark task's wall time. *)
let traced_pass ~domains expected =
  let indexed = List.mapi (fun i spec -> (i, spec)) Suite.all in
  let rows =
    Pool.map ~domains
      (fun (i, spec) ->
        Tracer.with_job i (fun () ->
            let t0 = now () in
            let results =
              Tracer.span "core.grid_task" (fun () -> run_benchmark spec)
            in
            (spec, results, now () -. t0)))
      indexed
  in
  let table =
    Tracer.span "core.render" (fun () ->
        render (List.map (fun (s, r, _) -> (s, r)) rows))
  in
  ( String.equal table expected,
    List.map (fun ((s : Suite.spec), _, dt) -> (s.name, dt)) rows )

(* --- workload ---------------------------------------------------- *)

(* Set-up loads the expected table, fixes the fan-out and checks that
   every suite source parses; users pay workload build on every run, so
   it stays in the pass.  A set-up takes under a millisecond, and how
   fast the host runs so short a task shifts within a run, so the run
   sets up 11 times before the first pass and 10 times before each
   pass, and reports the median of all of them. *)
let setups opts n =
  List.init n (fun _ ->
      let t0 = now () in
      let expected = read_file golden in
      Pool.set_default_domains opts.domains;
      List.iter (fun spec -> ignore (Suite.program spec)) Suite.all;
      (now () -. t0, expected))

let run opts =
  let first = setups opts 11 in
  let expected = snd (List.hd first) in
  if not opts.trace then begin
    let passes =
      repeat_for ~seconds:opts.seconds ~min:3 (fun _ ->
          let more = setups opts 10 in
          let t0 = now () in
          let ok = untraced_pass ~domains:opts.domains expected in
          (List.map fst more, now () -. t0, ok))
    in
    let passes = List.map snd passes in
    let setup_times =
      List.map fst first @ List.concat_map (fun (s, _, _) -> s) passes
    in
    let times = List.map (fun (_, dt, _) -> dt) passes in
    Printf.printf "  %d passes: %s s\n" (List.length times)
      (String.concat " " (List.map (Printf.sprintf "%.3f") times));
    let failed = List.length (List.filter (fun (_, _, ok) -> not ok) passes) in
    {
      attempted = List.length passes;
      failed;
      failures =
        (if failed > 0 then [ "fig3 table differs from " ^ golden ] else []);
      metrics =
        [
          metric "setup_s" (median setup_times) "s";
          metric "pass_s" (median times) "s";
          metric "peak_rss_mb" (peak_rss_mb None) "MB";
        ];
    }
  end
  else begin
    (* Pair untraced and traced passes so both see the same machine
       state; then one untraced pass on a single domain for the pool
       speed-up. *)
    let pairs =
      repeat_for ~seconds:opts.seconds ~min:2 (fun i ->
          let untraced () =
            let t0 = now () in
            let ok = untraced_pass ~domains:opts.domains expected in
            (ok, now () -. t0)
          in
          let traced () =
            Tracer.set_enabled true;
            let t0 = now () in
            let ok, tasks = traced_pass ~domains:opts.domains expected in
            let dt = now () -. t0 in
            Tracer.set_enabled false;
            (ok, dt, tasks)
          in
          (* Alternate which of the two goes first. *)
          let (ok_u, u), (ok_t, t, tasks) =
            if i mod 2 = 0 then
              let u = untraced () in
              (u, traced ())
            else
              let t = traced () in
              (untraced (), t)
          in
          (List.length (List.filter not [ ok_u; ok_t ]), u, t, tasks))
    in
    let t0 = now () in
    let ok_1 = untraced_pass ~domains:1 expected in
    let one_domain = now () -. t0 in
    Pool.set_default_domains opts.domains;
    let pairs = List.map snd pairs in
    let failed =
      List.fold_left (fun n (f, _, _, _) -> n + f) 0 pairs + if ok_1 then 0 else 1
    in
    let untraced = median (List.map (fun (_, u, _, _) -> u) pairs) in
    let traced = median (List.map (fun (_, _, t, _) -> t) pairs) in
    let critical =
      median
        (List.map
           (fun (_, _, _, tasks) ->
             List.fold_left (fun m (_, dt) -> Float.max m dt) 0.0 tasks)
           pairs)
    in
    let tasks =
      List.map
        (fun (name, _) ->
          ( name,
            median
              (List.map (fun (_, _, _, ts) -> List.assoc name ts) pairs) ))
        (let _, _, _, ts = List.hd pairs in ts)
    in
    {
      (* Each pair is two passes, plus the single-domain one. *)
      attempted = (2 * List.length pairs) + 1;
      failed;
      failures =
        (if failed > 0 then [ "fig3 table differs from " ^ golden ] else []);
      metrics =
        Layers.metrics ~passes:(List.length pairs) (Tracer.spans ())
          ~fallbacks:(Atomic.get fallbacks)
          ~extra:
            ([
              ("core.pool_speedup", one_domain /. untraced);
              ("core.critical_task_s", critical);
              ("core.critical_task_frac", critical /. traced);
              ("bench.trace_overhead_frac", (traced -. untraced) /. untraced);
            ]
            @ List.map (fun (name, dt) -> ("core.task_s." ^ name, dt)) tasks);
    }
  end
