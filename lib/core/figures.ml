module Sim = Dpm_sim
module Layout = Dpm_layout
module Workloads = Dpm_workloads
module Table = Dpm_util.Table

(* Every benchmark×scheme / config×scheme grid below fans out through
   [Pool.map]: each task builds its program, plan, trace and simulator
   state from scratch (share-nothing; see the audit note in DESIGN.md
   §2), so results are bit-identical whatever the domain count. *)
module Pool = Dpm_util.Pool

type row = { label : string; cells : (string * float) list }

type figure = {
  id : string;
  title : string;
  rows : row list;
  rendered : string;
}

let render ~id ~title ~columns rows =
  let t =
    Table.create ~title
      ~columns:
        (("bench", Table.Left)
        :: List.map (fun c -> (c, Table.Right)) columns)
  in
  List.iter
    (fun r ->
      Table.add_row t
        (r.label :: List.map (fun (_, v) -> Table.cell_f3 v) r.cells))
    rows;
  { id; title; rows; rendered = Table.render t }

let scheme_columns = List.map Scheme.name Scheme.all

(* One task per suite benchmark under a setup derived per spec; each
   task reduces its scheme results to its rows before it returns, so no
   full [Result.t] (service intervals included) outlives its task. *)
let bench_rows ?(mode = `Open) ?(faults = Sim.Fault.none) rows_of =
  List.concat
    (Pool.map
       (fun (spec : Workloads.Suite.spec) ->
         Dpm_util.Telemetry.span
           ~args:(fun () -> [ ("bench", spec.Workloads.Suite.name) ])
           Dpm_util.Telemetry.global "figure.bench"
         @@ fun () ->
         let p, plan = Experiment.workload spec in
         let setup = Experiment.make_setup ~noise:spec.noise ~mode ~faults () in
         rows_of spec (Experiment.run_all ~setup p plan))
       Workloads.Suite.all)

let table1 () =
  let specs = Sim.Config.default.Sim.Config.specs in
  let rendered =
    Format.asprintf "== Table 1: Default simulation parameters ==@.@[<v>%a@]@."
      Dpm_disk.Specs.pp specs
    ^ Format.asprintf
        "Striping: stripe unit %a, stripe factor %d, starting disk %d@."
        Dpm_util.Units.pp_bytes
        Layout.Striping.default.Layout.Striping.stripe_size
        Layout.Striping.default.Layout.Striping.stripe_factor
        Layout.Striping.default.Layout.Striping.start_disk
  in
  { id = "table1"; title = "Table 1"; rows = []; rendered }

let table2 () =
  let rows =
    Pool.map
      (fun (spec : Workloads.Suite.spec) ->
        let p, plan = Experiment.workload spec in
        let base = Experiment.run Scheme.Base p plan in
        {
          label = spec.name;
          cells =
            [
              ( "MB",
                Dpm_util.Units.mb_of_bytes (Dpm_ir.Program.total_data_bytes p)
              );
              ("MB(paper)", spec.data_mb);
              ("reqs", float_of_int (Sim.Result.requests base));
              ("reqs(paper)", float_of_int spec.requests);
              ("energy(J)", base.Sim.Result.energy);
              ("energy(paper)", spec.base_energy_j);
              ("time(s)", base.Sim.Result.exec_time);
              ("time(paper)", spec.exec_time_s);
            ];
        })
      Workloads.Suite.all
  in
  render ~id:"table2" ~title:"Table 2: Benchmarks and their characteristics"
    ~columns:
      [
        "MB"; "MB(paper)"; "reqs"; "reqs(paper)"; "energy(J)"; "energy(paper)";
        "time(s)"; "time(paper)";
      ]
    rows

let grid ~id ~title ~metric ?mode ?faults () =
  let rows =
    bench_rows ?mode ?faults (fun spec results ->
        let base = List.assoc Scheme.Base results in
        [
          {
            label = spec.name;
            cells =
              List.map
                (fun s ->
                  let r = List.assoc s results in
                  (Scheme.name s, metric r base))
                Scheme.all;
          };
        ])
  in
  render ~id ~title ~columns:scheme_columns rows

let fig3 () =
  grid ~id:"fig3" ~title:"Figure 3: Normalized energy consumption"
    ~metric:(fun r base -> Sim.Result.normalized_energy r ~base)
    ()

let fig4 () =
  grid ~id:"fig4" ~title:"Figure 4: Normalized execution time"
    ~metric:(fun r base -> Sim.Result.normalized_time r ~base)
    ()

(* --- fault injection (beyond the paper) --- *)

let degraded_storm =
  Sim.Fault.make ~seed:1905 ~read_error_rate:0.01 ~bad_unit_rate:0.005
    ~spin_up_failure_rate:0.2
    ~disk_failures:[ (0, 30.0) ]
    ()

let degraded_grid ?(faults = degraded_storm) () =
  grid ~id:"fig3-degraded"
    ~title:
      "Figure 3 under fault injection (normalized to each row's faulted Base)"
    ~metric:(fun r base -> Sim.Result.normalized_energy r ~base)
    ~faults ()

let fault_sweep () =
  let spec = Workloads.Suite.find "swim" in
  let schemes = [ Scheme.Base; Scheme.Tpm; Scheme.Drpm; Scheme.Cmdrpm ] in
  let half_life = spec.Workloads.Suite.exec_time_s /. 2.0 in
  let configs =
    [
      ("none", Sim.Fault.none);
      ("read-1%", Sim.Fault.make ~seed:7 ~read_error_rate:0.01 ());
      ("bad-0.5%", Sim.Fault.make ~seed:7 ~bad_unit_rate:0.005 ());
      ("spinfail-25%", Sim.Fault.make ~seed:7 ~spin_up_failure_rate:0.25 ());
      ("disk0-dies", Sim.Fault.make ~seed:7 ~disk_failures:[ (0, half_life) ] ());
      ( "storm",
        Sim.Fault.make ~seed:7 ~read_error_rate:0.01 ~bad_unit_rate:0.005
          ~spin_up_failure_rate:0.25
          ~disk_failures:[ (0, half_life) ]
          () );
    ]
  in
  let rows =
    Pool.map
      (fun (label, faults) ->
        let p, plan = Experiment.workload spec in
        let setup = Experiment.make_setup ~noise:spec.noise ~faults () in
        let results = Experiment.run_all ~setup ~schemes p plan in
        let base = List.assoc Scheme.Base results in
        {
          label;
          cells =
            List.map
              (fun s ->
                ( Scheme.name s ^ "-E",
                  Sim.Result.normalized_energy (List.assoc s results) ~base ))
              schemes
            @ List.map
                (fun s ->
                  ( Scheme.name s ^ "-T",
                    Sim.Result.normalized_time (List.assoc s results) ~base ))
                schemes
            @ [
                ( "events(Base)",
                  float_of_int
                    (Sim.Result.fault_events base.Sim.Result.faults) );
              ];
        })
      configs
  in
  let columns = match rows with [] -> [] | r :: _ -> List.map fst r.cells in
  render ~id:"fault-sweep"
    ~title:
      "Fault sweep: swim under fault injection (normalized to each row's \
       faulted Base)"
    ~columns rows

let table3 () =
  let rows =
    Pool.map
      (fun (spec : Workloads.Suite.spec) ->
        let p, plan = Experiment.workload spec in
        let setup = { Experiment.default_setup with noise = spec.noise } in
        {
          label = spec.name;
          cells =
            [ ("mispredicted(%)", Experiment.misprediction_pct ~setup p plan) ];
        })
      Workloads.Suite.all
  in
  render ~id:"table3" ~title:"Table 3: Percentage of mispredicted disk speeds"
    ~columns:[ "mispredicted(%)" ] rows

(* --- swim sensitivity (Figures 5-8) --- *)

let swim_sensitivity ~configs ~label_of ~metric ~id ~title =
  let spec = Workloads.Suite.find "swim" in
  let schemes = [ Scheme.Tpm; Scheme.Drpm; Scheme.Idrpm; Scheme.Cmdrpm ] in
  let rows =
    Pool.map
      (fun config ->
        let striping, ndisks = config in
        let p = Workloads.Suite.program spec in
        let plan = Layout.Plan.uniform ~striping ~ndisks p in
        let p =
          Workloads.Suite.calibrate ~target_exec:spec.exec_time_s p
            (Workloads.Suite.default_plan ~ndisks:8 p)
        in
        let setup = { Experiment.default_setup with noise = spec.noise } in
        let results = Experiment.run_all ~setup ~schemes:(Scheme.Base :: schemes) p plan in
        let base = List.assoc Scheme.Base results in
        {
          label = label_of config;
          cells =
            List.map
              (fun s -> (Scheme.name s, metric (List.assoc s results) base))
              schemes;
        })
      configs
  in
  render ~id ~title ~columns:(List.map Scheme.name schemes) rows

let stripe_size_configs =
  List.map
    (fun kb ->
      ( Layout.Striping.make ~start_disk:0 ~stripe_factor:8
          ~stripe_size:(Dpm_util.Units.kib kb),
        8 ))
    [ 16; 32; 64; 128; 256 ]

let stripe_size_label (s, _) =
  Printf.sprintf "%dKB" (s.Layout.Striping.stripe_size / 1024)

let stripe_factor_configs =
  List.map
    (fun n ->
      ( Layout.Striping.make ~start_disk:0 ~stripe_factor:n
          ~stripe_size:(Dpm_util.Units.kib 64),
        n ))
    [ 2; 4; 8; 16 ]

let stripe_factor_label (s, _) =
  Printf.sprintf "%d disks" s.Layout.Striping.stripe_factor

let fig5 () =
  swim_sensitivity ~configs:stripe_size_configs ~label_of:stripe_size_label
    ~metric:(fun r base -> Sim.Result.normalized_energy r ~base)
    ~id:"fig5" ~title:"Figure 5: swim energy vs stripe size"

let fig6 () =
  swim_sensitivity ~configs:stripe_size_configs ~label_of:stripe_size_label
    ~metric:(fun r base -> Sim.Result.normalized_time r ~base)
    ~id:"fig6" ~title:"Figure 6: swim execution time vs stripe size"

let fig7 () =
  swim_sensitivity ~configs:stripe_factor_configs ~label_of:stripe_factor_label
    ~metric:(fun r base -> Sim.Result.normalized_energy r ~base)
    ~id:"fig7" ~title:"Figure 7: swim energy vs stripe factor"

let fig8 () =
  swim_sensitivity ~configs:stripe_factor_configs ~label_of:stripe_factor_label
    ~metric:(fun r base -> Sim.Result.normalized_time r ~base)
    ~id:"fig8" ~title:"Figure 8: swim execution time vs stripe factor"

(* --- Figure 13: code transformations --- *)

let fig13 () =
  let versions =
    Dpm_compiler.Pipeline.[ LF; TL; LF_DL; TL_DL ]
  in
  let rows =
    Pool.map
      (fun (spec : Workloads.Suite.spec) ->
        let p, plan = Experiment.workload spec in
        let orig_base = Experiment.run Scheme.Base p plan in
        let cells =
          List.concat_map
            (fun version ->
              let setup =
                {
                  Experiment.default_setup with
                  noise = spec.noise;
                  version;
                }
              in
              let vname = Dpm_compiler.Pipeline.version_name version in
              List.map
                (fun scheme ->
                  let r = Experiment.run ~setup scheme p plan in
                  ( Printf.sprintf "%s/%s" vname (Scheme.name scheme),
                    r.Sim.Result.energy /. orig_base.Sim.Result.energy ))
                [ Scheme.Cmtpm; Scheme.Cmdrpm ])
            versions
        in
        { label = spec.name; cells })
      Workloads.Suite.all
  in
  let columns = match rows with [] -> [] | r :: _ -> List.map fst r.cells in
  render ~id:"fig13"
    ~title:
      "Figure 13: Normalized energy with code transformations (vs untransformed Base)"
    ~columns rows

let extensions () =
  let rows =
    Pool.map
      (fun (spec : Workloads.Suite.spec) ->
        let p, plan = Experiment.workload spec in
        let setup =
          { Experiment.default_setup with noise = spec.noise }
        in
        let base = Experiment.run ~setup Scheme.Base p plan in
        let trace =
          Dpm_trace.Generate.run
            ~config:
              {
                Dpm_trace.Generate.cost = Dpm_ir.Cost.default;
                cache_blocks = setup.Experiment.cache_blocks;
              }
            p plan
        in
        let atpm =
          Sim.Engine.run ~config:setup.Experiment.sim
            (Sim.Policy.tpm_adaptive setup.Experiment.sim
               ~ndisks:(Dpm_trace.Trace.ndisks trace))
            trace
        in
        let tl_all =
          Experiment.run
            ~setup:{ setup with version = Dpm_compiler.Pipeline.TL_ALL_DL }
            Scheme.Cmdrpm p plan
        in
        {
          label = spec.name;
          cells =
            [
              ("ATPM-E", Sim.Result.normalized_energy atpm ~base);
              ("ATPM-T", Sim.Result.normalized_time atpm ~base);
              ( "TLall+DL/CMDRPM-E",
                tl_all.Sim.Result.energy /. base.Sim.Result.energy );
              ( "TLall+DL/CMDRPM-T",
                tl_all.Sim.Result.exec_time /. base.Sim.Result.exec_time );
            ];
        })
      Workloads.Suite.all
  in
  render ~id:"ext"
    ~title:
      "Extensions: adaptive-threshold TPM and multi-nest tiling (vs untransformed Base)"
    ~columns:[ "ATPM-E"; "ATPM-T"; "TLall+DL/CMDRPM-E"; "TLall+DL/CMDRPM-T" ]
    rows

let shared_subsystem () =
  let specs = Sim.Config.default.Sim.Config.specs in
  let load name =
    let spec = Workloads.Suite.find name in
    let p, plan = Experiment.workload spec in
    (spec, p, plan)
  in
  let sw_spec, sw_p, sw_plan = load "swim" in
  let gg_spec, gg_p, gg_plan = load "galgel" in
  let gen p plan =
    Dpm_trace.Generate.run
      ~config:
        {
          Dpm_trace.Generate.cost = Dpm_ir.Cost.default;
          cache_blocks = Workloads.Suite.cache_blocks;
        }
      p plan
  in
  let plain = [ gen sw_p sw_plan; gen gg_p gg_plan ] in
  let cm_trace (spec : Workloads.Suite.spec) p plan =
    let compiled =
      Dpm_compiler.Pipeline.compile ~scheme:Dpm_compiler.Insertion.Drpm
        ~noise:spec.noise ~cache_blocks:Workloads.Suite.cache_blocks ~specs p
        plan
    in
    gen compiled.Dpm_compiler.Pipeline.program plan
  in
  let base = Sim.Engine.run_many Sim.Policy.base plain in
  let drpm =
    Sim.Engine.run_many (Sim.Policy.drpm Sim.Config.default ~ndisks:8) plain
  in
  let idrpm = Sim.Oracle.idrpm base in
  let cmdrpm =
    Sim.Engine.run_many Sim.Policy.cm_drpm
      [ cm_trace sw_spec sw_p sw_plan; cm_trace gg_spec gg_p gg_plan ]
  in
  let row label (r : Sim.Result.t) =
    {
      label;
      cells =
        [
          ("energy(J)", r.Sim.Result.energy);
          ("E/base", Sim.Result.normalized_energy r ~base);
          ("T/base", Sim.Result.normalized_time r ~base);
        ];
    }
  in
  render ~id:"ext-shared"
    ~title:"Extension: swim + galgel co-scheduled on one subsystem"
    ~columns:[ "energy(J)"; "E/base"; "T/base" ]
    [
      row "Base" base; row "DRPM" drpm; row "IDRPM" idrpm; row "CMDRPM" cmdrpm;
    ]

let knob_ablation () =
  let spec = Workloads.Suite.find "swim" in
  let p, plan = Experiment.workload spec in
  let run_with sim =
    let setup = { Experiment.default_setup with noise = spec.noise; sim } in
    let results =
      Experiment.run_all ~setup
        ~schemes:[ Scheme.Base; Scheme.Drpm; Scheme.Cmdrpm ]
        p plan
    in
    let base = List.assoc Scheme.Base results in
    let v s metric = metric (List.assoc s results) base in
    [
      ("DRPM-E", v Scheme.Drpm (fun r b -> Sim.Result.normalized_energy r ~base:b));
      ("CMDRPM-E", v Scheme.Cmdrpm (fun r b -> Sim.Result.normalized_energy r ~base:b));
      ("CMDRPM-T", v Scheme.Cmdrpm (fun r b -> Sim.Result.normalized_time r ~base:b));
    ]
  in
  let default = Sim.Config.default in
  let rows =
    Pool.map
      (fun (label, sim) -> { label; cells = run_with sim })
      [
        ("default", default);
        ("queue=4", Sim.Config.with_queue_depth 4 default);
        ("queue=128", Sim.Config.with_queue_depth 128 default);
        ( "rpm 0.05ms",
          Sim.Config.with_specs
            {
              default.Sim.Config.specs with
              Dpm_disk.Specs.rpm_transition_per_rpm = 0.05e-3;
            }
            default );
        ( "rpm 0.20ms",
          Sim.Config.with_specs
            {
              default.Sim.Config.specs with
              Dpm_disk.Specs.rpm_transition_per_rpm = 0.20e-3;
            }
            default );
        ( "idle-step 0.5s", Sim.Config.with_drpm_idle_interval 0.5 default );
      ]
  in
  render ~id:"ablation-knobs"
    ~title:"Ablation: modeling knobs on swim (normalized to each row's Base)"
    ~columns:[ "DRPM-E"; "CMDRPM-E"; "CMDRPM-T" ]
    rows

let closed_loop_ablation () =
  let rows =
    bench_rows ~mode:`Closed (fun spec results ->
        let base = List.assoc Scheme.Base results in
        let row suffix metric =
          {
            label = spec.name ^ suffix;
            cells =
              List.map
                (fun s -> (Scheme.name s, metric (List.assoc s results) ~base))
                Scheme.all;
          }
        in
        [
          row "/E" Sim.Result.normalized_energy;
          row "/T" Sim.Result.normalized_time;
        ])
  in
  render ~id:"ablation-closed"
    ~title:
      "Ablation: closed-loop replay (every delay propagates; /E energy, /T time)"
    ~columns:scheme_columns rows

(* One top-level span per figure: the trace shows each figure as a
   parent with its grid's [pool.task] jobs fanned out underneath. *)
let traced id f =
  Dpm_util.Telemetry.span
    ~args:(fun () -> [ ("figure", id) ])
    Dpm_util.Telemetry.global "figure.build" f

let all () =
  List.map
    (fun (id, f) -> traced id f)
    [
      ("table1", table1);
      ("table2", table2);
      ("fig3", fig3);
      ("fig4", fig4);
      ("table3", table3);
      ("fig5", fig5);
      ("fig6", fig6);
      ("fig7", fig7);
      ("fig8", fig8);
      ("fig13", fig13);
      ("extensions", extensions);
      ("shared", shared_subsystem);
      ("knobs", knob_ablation);
      ("closed-loop", closed_loop_ablation);
      ("faults", fault_sweep);
    ]
