(* trace-replay: a saved synthetic trace of 262,144 I/O events, replayed
   through [Run.exec_all] on [Run.Trace_file], streamed (the file is
   parsed afresh for each replay), three ways per pass:
   under every scheme (the paper's seven plus Adaptive), under all seven
   again with the SSTF request scheduler, and as Base+CMDRPM with a
   power meter on each replay.  No compilation or trace generation runs
   in the pass: file parsing, the replay cores, the scheduler, the
   meter and the oracles do all the work.

   Set-up generates the trace from the seed and saves it.  It runs in a
   child process, so the pass's peak memory is the replay's own. *)

open Common
module Sim = Dpm_sim
module Trace = Dpm_trace
module Scheme = Dpm_core.Scheme
module Run = Dpm_core.Run
module Experiment = Dpm_core.Experiment

let events = 262_144

(* Two 256 MB arrays of 4096 stripe units, swept 64 times in total
   through the default 1024-unit cache, so every sweep misses on every
   unit.  Consecutive nests alternate arrays and loop order (row-major,
   then column-major), so no nest inherits cached units and the event
   count stays fixed.  The seed picks how the sweeps split into the
   four nests and each nest's per-element work within 5% of 400 — small
   enough that every seed costs the same to replay. *)
let source seed =
  let rng = Random.State.make [| seed; 0x7e11 |] in
  let sweeps = Array.make 4 8 in
  for _ = 1 to 32 do
    let k = Random.State.int rng 4 in
    sweeps.(k) <- sweeps.(k) + 1
  done;
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "# trace-replay synthetic: 64 cache-thrashing sweeps\n\
     array A[512][64] : 8192\n\
     array B[512][64] : 8192\n";
  Array.iteri
    (fun k n ->
      let arr = if k mod 2 = 0 then "A" else "B" in
      let work = 380 + Random.State.int rng 41 in
      let (outer, outer_hi), (inner, inner_hi) =
        if k mod 2 = 0 then (("i", 511), ("j", 63)) else (("j", 63), ("i", 511))
      in
      Printf.bprintf buf
        "for s%d = 1 to %d { for %s = 0 to %d { for %s = 0 to %d { use %s[i][j] \
         work %d } } }\n"
        k n outer outer_hi inner inner_hi arr work)
    sweeps;
  Buffer.contents buf

let generate seed path =
  let p = Dpm_ir.Parser.program ~name:"trace-replay" (source seed) in
  let plan = Dpm_workloads.Suite.default_plan p in
  let trace = Trace.Generate.run p plan in
  if Trace.Trace.io_count trace <> events then
    failwith
      (Printf.sprintf "synthetic trace has %d I/O events, expected %d"
         (Trace.Trace.io_count trace) events);
  Trace.Trace.save trace path

(* Generate and save in a child process; the parent only waits. *)
let setup_once seed path =
  flush_all ();
  match Unix.fork () with
  | 0 ->
      let code =
        match generate seed path with
        | () -> 0
        | exception e ->
            prerr_endline (Printexc.to_string e);
            1
      in
      Unix._exit code
  | pid -> (
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> failwith "trace-replay: set-up failed")

let sstf = Sim.Config.with_sched Sim.Config.Sstf Sim.Config.default
let metered = [ Scheme.Base; Scheme.Cmdrpm ]
let resolution = 1.0

(* --- untraced pass: three Run.exec_all jobs ---------------------- *)

(* A pass keeps a digest of each job's results, not the results: a
   result retains every service interval, so holding a pass's results
   would dominate the process's memory. *)
type pass = {
  fcfs : Digest.t;
  sched : Digest.t;
  meter : Digest.t;
  integrals : (Scheme.t * float * float) list;
      (** Meter integral and replay energy per metered scheme. *)
}

(* An MD5 chain over every field of the results, 64 KB at a time.
   Marshalling a job's results whole would allocate a 10-40 MB string
   between the timed jobs and count toward the peak memory. *)
let digest (results : (Scheme.t * Sim.Result.t) list) =
  let size = 65536 in
  let buf = Bytes.make size '\000' and pos = ref 16 in
  let word w =
    if !pos + 8 > size then begin
      Bytes.blit_string (Digest.subbytes buf 0 !pos) 0 buf 0 16;
      pos := 16
    end;
    Bytes.set_int64_le buf !pos w;
    pos := !pos + 8
  in
  let int i = word (Int64.of_int i) and float f = word (Int64.bits_of_float f) in
  let disk
      {
        Sim.Result.energy; busy; requests; transitions; spin_downs;
        level_residency; standby_time; transition_time;
      } =
    List.iter float [ energy; standby_time; transition_time ];
    List.iter (fun (a, b) -> float a; float b) busy;
    List.iter int [ requests; transitions; spin_downs ];
    Array.iter float level_residency
  in
  let faults
      {
        Sim.Result.read_retries; retry_delay; remaps; spin_up_recoveries;
        redirects; failed_disks;
      } =
    float retry_delay;
    List.iter int [ read_retries; remaps; spin_up_recoveries; redirects; failed_disks ]
  in
  List.iter
    (fun (s, { Sim.Result.scheme; program; exec_time; energy; disks; gap_choices; faults = f }) ->
      List.iter (fun x -> int (Hashtbl.hash x)) [ Scheme.name s; scheme; program ];
      float exec_time;
      float energy;
      Array.iter disk disks;
      List.iter (fun (d, t, l) -> int d; float t; int l) gap_choices;
      faults f)
    results;
  Digest.subbytes buf 0 !pos

let exec spec =
  match Run.exec_all spec with
  | Ok r -> r
  | Error e -> failwith (Run.error_message e)

let meters_for cfg schemes =
  List.map
    (fun s ->
      let sink = Sim.Timeline.sink () in
      let m =
        Sim.Meter.create ~resolution ~specs:cfg.Sim.Config.specs
          ~fleet:cfg.Sim.Config.fleet ()
      in
      Sim.Meter.attach m sink;
      (s, (sink, m)))
    schemes

let integrals meters results =
  List.map
    (fun (s, (_, m)) ->
      Sim.Meter.finish m;
      ( s,
        (Sim.Meter.integral m).Sim.Timeline.total,
        (List.assoc s results).Sim.Result.energy ))
    meters

(* Returns the pass and its three jobs' wall times; the digests are
   taken outside them. *)
let untraced_pass path =
  let jobs = ref [] in
  let timed f =
    let t0 = now () in
    let r = f () in
    jobs := (now () -. t0) :: !jobs;
    r
  in
  let w = Run.Trace_file path in
  let fcfs =
    digest (timed (fun () -> exec (Run.spec ~stream:true ~schemes:Scheme.extended w)))
  in
  let sched =
    digest
      (timed (fun () -> exec (Run.spec ~stream:true ~schemes:Scheme.all ~sim:sstf w)))
  in
  let ms = meters_for Sim.Config.default metered in
  let meter =
    timed (fun () ->
        exec
          (Run.with_timeline
             (fun s -> Option.map fst (List.assoc_opt s ms))
             (Run.spec ~stream:true ~schemes:metered w)))
  in
  ({ fcfs; sched; meter = digest meter; integrals = integrals ms meter }, List.rev !jobs)

(* --- traced pass: the same jobs, call by call -------------------- *)

(* [Experiment.replay_all] over a streamed trace file, with a span
   around each parse and each replay.  The streaming pipeline parses
   the file afresh for every replay, with the parse fused into it; here
   each parse drains its own [Stream.of_file] first, so that its time
   is apart from the replay's. *)
let replay_all ~(setup : Experiment.setup) ~span ?timeline schemes path =
  let parse () =
    let trace =
      Tracer.span "trace.parse" ~items:Trace.Trace.event_count (fun () ->
          Trace.Trace.Stream.to_trace
            (Trace.Trace.Stream.of_file ~batch:setup.batch path))
    in
    (Trace.Trace.ndisks trace, Trace.Trace.Stream.of_trace ~batch:setup.batch trace)
  in
  let cfg = setup.sim in
  let sink s = Option.bind timeline (fun f -> f s) in
  let replay s name policy =
    let ndisks, stream = parse () in
    Grid.replay ~setup ?timeline:(sink s) ~span name (policy ndisks) stream
  in
  let base = lazy (replay Scheme.Base "base" (fun _ -> Sim.Policy.base)) in
  List.map
    (fun scheme ->
      ( scheme,
        match (scheme : Scheme.t) with
        | Base -> Lazy.force base
        | Tpm -> replay scheme "tpm" (fun _ -> Sim.Policy.tpm cfg)
        | Drpm -> replay scheme "drpm" (fun ndisks -> Sim.Policy.drpm cfg ~ndisks)
        | Adaptive ->
            replay scheme "adaptive" (fun ndisks -> Sim.Policy.adaptive cfg ~ndisks)
        | Itpm ->
            let b = Lazy.force base in
            Tracer.span "sim.oracle" (fun () ->
                Sim.Oracle.itpm ~config:cfg ?timeline:(sink scheme) b)
        | Idrpm ->
            let b = Lazy.force base in
            Tracer.span "sim.oracle" (fun () ->
                Sim.Oracle.idrpm ~config:cfg ?timeline:(sink scheme) b)
        | Cmtpm -> replay scheme "cmtpm" (fun _ -> Sim.Policy.cm_tpm)
        | Cmdrpm -> replay scheme "cmdrpm" (fun _ -> Sim.Policy.cm_drpm) ))
    schemes

let traced_pass path =
  let setup = Experiment.make_setup ~stream:true () in
  let jobs = ref [] in
  let job i f =
    let t0 = now () in
    let r = Tracer.with_job i f in
    jobs := (now () -. t0) :: !jobs;
    r
  in
  let fcfs =
    digest
      (job 0 (fun () ->
           replay_all ~setup ~span:"sim.replay." Scheme.extended path))
  in
  let sched =
    digest
      (job 1 (fun () ->
           replay_all ~setup:{ setup with sim = sstf } ~span:"sim.sched."
             Scheme.all path))
  in
  let ms = meters_for setup.sim metered in
  let meter =
    job 2 (fun () ->
        replay_all ~setup ~span:"sim.meter."
          ~timeline:(fun s -> Option.map fst (List.assoc_opt s ms))
          metered path)
  in
  ( { fcfs; sched; meter = digest meter; integrals = integrals ms meter },
    List.rev !jobs )

(* --- checks ------------------------------------------------------ *)

(* One message per failing job: results must repeat the first pass's
   exactly, and each meter integral must match its replay's energy. *)
let check ~reference p =
  let integral_errors =
    List.filter_map
      (fun (s, integral, energy) ->
        if rel_diff integral energy > 1e-6 then
          Some
            (Printf.sprintf "%s: meter integral %.9g J vs energy %.9g J"
               (Scheme.name s) integral energy)
        else None)
      p.integrals
  in
  List.filter_map Fun.id
    [
      (if p.fcfs <> reference.fcfs then
         Some "FCFS results differ from the first pass"
       else None);
      (if p.sched <> reference.sched then
         Some "SSTF results differ from the first pass"
       else None);
      (if p.meter <> reference.meter then
         Some "metered results differ from the first pass"
       else if integral_errors <> [] then Some (String.concat "; " integral_errors)
       else None);
    ]

(* --- workload ---------------------------------------------------- *)

let run opts =
  let path = Filename.concat opts.out_dir (Printf.sprintf "replay-%d.trc" opts.seed) in
  let setups =
    List.init 3 (fun _ ->
        let t0 = now () in
        setup_once opts.seed path;
        now () -. t0)
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  (* The first pass is the reference the others must repeat; it also
     pages the file in. *)
  let reference, _ = untraced_pass path in
  let failures = ref (check ~reference reference) in
  let note p = failures := !failures @ check ~reference p in
  if not opts.trace then begin
    let passes =
      repeat_for ~seconds:opts.seconds ~min:3 (fun _ ->
          let p, jobs = untraced_pass path in
          note p;
          jobs)
    in
    let pass_times = List.map (fun (_, js) -> List.fold_left ( +. ) 0.0 js) passes in
    Printf.printf "  %d passes: %s s\n" (List.length pass_times)
      (String.concat " " (List.map (Printf.sprintf "%.3f") pass_times));
    {
      attempted = 3 * (List.length passes + 1);
      failed = List.length !failures;
      failures = !failures;
      metrics =
        [
          metric "setup_s" (median setups) "s";
          metric "pass_s" (median pass_times) "s";
          metric "peak_rss_mb" (peak_rss_mb None) "MB";
        ];
    }
  end
  else begin
    let pairs =
      repeat_for ~seconds:opts.seconds ~min:2 (fun i ->
          let untraced () =
            let p, jobs = untraced_pass path in
            note p;
            List.fold_left ( +. ) 0.0 jobs
          in
          let traced () =
            Tracer.set_enabled true;
            let p, jobs = traced_pass path in
            Tracer.set_enabled false;
            note p;
            List.fold_left ( +. ) 0.0 jobs
          in
          (* Alternate which of the two goes first. *)
          if i mod 2 = 0 then
            let u = untraced () in
            (u, traced ())
          else
            let t = traced () in
            (untraced (), t))
    in
    let untraced = median (List.map (fun (_, (u, _)) -> u) pairs) in
    let traced = median (List.map (fun (_, (_, t)) -> t) pairs) in
    {
      attempted = 3 * (1 + (2 * List.length pairs));
      failed = List.length !failures;
      failures = !failures;
      metrics =
        Layers.metrics ~passes:(List.length pairs)
          ~fallbacks:(Atomic.get Grid.fallbacks)
          ~extra:[ ("bench.trace_overhead_frac", (traced -. untraced) /. untraced) ]
          (Tracer.spans ());
    }
  end
