module Request = Dpm_trace.Request
module Trace = Dpm_trace.Trace
module Stream = Dpm_trace.Trace.Stream

type mode = [ `Open | `Closed ]

(* Replay observation lives in {!Observe} (shared with the specialized
   core, so both accumulate histograms through identical code). *)
let make_obs = Observe.make
let observe_arrival = Observe.observe_arrival
let observe_service = Observe.observe_service
let flush_obs = Observe.flush
let retries_before = Observe.retries_before

(* The reference replay body lives in {!Sched}: FCFS is the eager
   legacy loop, everything else defers requests into per-disk bounded
   queues and dispatches by discipline. *)
let replay = Sched.replay

let record_replay (result : Result.t) =
  let add = Dpm_util.Telemetry.(add global) in
  add "sim.requests" (Result.requests result);
  add "sim.runs" 1;
  let f = result.Result.faults in
  if f.Result.read_retries > 0 then add "sim.fault.retries" f.Result.read_retries;
  if f.Result.remaps > 0 then add "sim.fault.remaps" f.Result.remaps;
  if f.Result.spin_up_recoveries > 0 then
    add "sim.fault.spinup_recoveries" f.Result.spin_up_recoveries;
  if f.Result.redirects > 0 then add "sim.fault.redirects" f.Result.redirects

type core = [ `Fast | `Reference ]

let run_stream ?(config = Config.default) ?(mode = `Open)
    ?(faults = Fault.none) ?timeline ?(core = `Fast) policy stream =
  let fault =
    Fault.init faults ~ndisks:(Stream.ndisks stream)
      ~nblocks:(lazy (Stream.nblocks stream))
  in
  let obs = make_obs () in
  let result =
    Dpm_util.Telemetry.span
      ~args:(fun () ->
        [
          ("scheme", policy.Policy.name); ("program", Stream.program stream);
        ])
      Dpm_util.Telemetry.global "sim.replay"
      (fun () ->
        match core with
        | `Fast when Fastpath.supported ~config policy ->
            Fastpath.replay ~config ~mode ~fault ~timeline ~obs policy stream
        | `Fast ->
            Dpm_util.Telemetry.(count global) "sim.fallbacks";
            replay ~config ~mode ~fault ~timeline ~obs policy stream
        | `Reference ->
            replay ~config ~mode ~fault ~timeline ~obs policy stream)
  in
  flush_obs obs result;
  record_replay result;
  result

let run ?config ?mode ?faults ?timeline ?core policy trace =
  run_stream ?config ?mode ?faults ?timeline ?core policy
    (Stream.of_trace trace)

(* --- Multiprogrammed replay --- *)

type app = {
  stream : Stream.t;
  mutable chunk : Request.event array;
  mutable idx : int;  (** next unprocessed event in [chunk] *)
  mutable clock : float;
  mutable done_ : bool;
}

let replay_many ~config ~mode ~fault ~timeline ~obs (policy : Policy.t)
    streams =
  (* Deferred-dispatch disciplines interleave with the per-app clocks in
     ways the merge below does not model; multiprogrammed replay is
     FCFS-only. *)
  if config.Config.sched <> Config.Fcfs then
    invalid_arg "Engine.run_many: only the FCFS scheduler is supported";
  match streams with
  | [] -> invalid_arg "Engine.run_many: no traces"
  | first :: rest ->
      let ndisks = Stream.ndisks first in
      List.iter
        (fun s ->
          if Stream.ndisks s <> ndisks then
            invalid_arg "Engine.run_many: disk counts differ")
        rest;
      let models = Array.init ndisks (fun d -> Config.model config ~disk:d) in
      let tops = Array.map Dpm_disk.Rpm.max_level models in
      let disks =
        Array.init ndisks (fun id ->
            Disk_state.create ?recorder:timeline
              ~retain_busy:config.Config.retain_busy models.(id) ~id)
      in
      let gap_choices = ref [] in
      let backlog = Array.make ndisks 0.0 in
      let depth = max 1 config.Config.queue_depth in
      let recent = Array.init ndisks (fun _ -> Array.make depth 0.0) in
      let recent_pos = Array.make ndisks 0 in
      let makespan = ref 0.0 in
      let apps =
        List.map
          (fun stream ->
            { stream; chunk = [||]; idx = 0; clock = 0.0; done_ = false })
          streams
      in
      (* Time at which an app's next event becomes runnable, pulling the
         next chunk on demand.  Exhaustion is discovered here: the tail
         think is folded into the app clock exactly once, as the
         materialized path did after its last event. *)
      let rec next_time app =
        if app.done_ then infinity
        else if app.idx < Array.length app.chunk then
          app.clock +. Request.think app.chunk.(app.idx)
        else
          match Stream.next app.stream with
          | Some chunk ->
              app.chunk <- chunk;
              app.idx <- 0;
              next_time app
          | None ->
              app.done_ <- true;
              app.chunk <- [||];
              app.clock <- app.clock +. Stream.tail_think app.stream;
              if app.clock > !makespan then makespan := app.clock;
              infinity
      in
      let sweep_failures now =
        match fault with
        | None -> ()
        | Some fs ->
            Fault.sweep fs ~now ~kill:(fun d at ->
                Disk_state.fail disks.(d) ~at)
      in
      let step app =
        let event = app.chunk.(app.idx) in
        app.idx <- app.idx + 1;
        app.clock <- app.clock +. Request.think event;
        sweep_failures app.clock;
        match event with
        | Request.Pm { directive; _ } ->
            if policy.Policy.accepts_directives then begin
              app.clock <- app.clock +. config.Config.pm_call_overhead;
              match directive with
              | Request.Spin_down d ->
                  Disk_state.record disks.(d) ~at:app.clock
                    Timeline.Directive_spin_down;
                  Disk_state.spin_down disks.(d) ~now:app.clock
              | Request.Spin_up d -> (
                  Disk_state.record disks.(d) ~at:app.clock
                    Timeline.Directive_spin_up;
                  match fault with
                  | None -> Disk_state.spin_up disks.(d) ~now:app.clock
                  | Some fs -> Fault.spin_up fs disks.(d) ~now:app.clock)
              | Request.Set_rpm { level; disk } ->
                  (* Directives planned against a taller ladder clamp to
                     this disk's own top level. *)
                  let level =
                    if level > tops.(disk) then tops.(disk) else level
                  in
                  if level < tops.(disk) then
                    gap_choices := (disk, app.clock, level) :: !gap_choices;
                  Disk_state.record disks.(disk) ~at:app.clock
                    (Timeline.Directive_set_rpm level);
                  Disk_state.set_level disks.(disk) ~now:app.clock level
            end
        | Request.Io io ->
            let d =
              match fault with
              | None -> io.disk
              | Some fs -> Fault.serving_disk fs ~disk:io.disk ~now:app.clock
            in
            if d <> io.disk then
              Disk_state.record disks.(d) ~at:app.clock
                (Timeline.Redirect io.disk);
            let oldest = recent.(d).(recent_pos.(d)) in
            if oldest > app.clock then app.clock <- oldest;
            let arrival = app.clock in
            observe_arrival obs ~ring:recent.(d) ~arrival;
            let issue = max arrival backlog.(d) in
            policy.Policy.catch_up disks.(d) ~now:issue;
            let before = retries_before obs fault in
            let completion =
              match fault with
              | None -> Disk_state.serve disks.(d) ~now:issue ~bytes:io.bytes
              | Some fs ->
                  Fault.serve fs disks.(d) ~now:issue ~bytes:io.bytes
                    ~block:io.block
            in
            backlog.(d) <- completion;
            recent.(d).(recent_pos.(d)) <- completion;
            recent_pos.(d) <- (recent_pos.(d) + 1) mod depth;
            if completion > !makespan then makespan := completion;
            let response = completion -. arrival in
            observe_service obs ~fault ~retries_before:before ~response;
            let nominal =
              Dpm_disk.Service.request_time models.(d) ~level:tops.(d)
                ~bytes:io.bytes
            in
            policy.Policy.on_complete disks.(d) ~now:completion ~response
              ~nominal;
            (match mode with
            | `Open -> app.clock <- arrival +. nominal
            | `Closed -> app.clock <- completion)
      in
      (* At every step the app with the earliest next event proceeds;
         ties go to the earlier app in list order (as the previous
         stable sort did). *)
      let rec drive () =
        let best =
          List.fold_left
            (fun best app ->
              if app.done_ then best
              else begin
                let t = next_time app in
                if app.done_ then best
                else
                  match best with
                  | Some (_, bt) when bt <= t -> best
                  | _ -> Some (app, t)
              end)
            None apps
        in
        match best with
        | None -> ()
        | Some (app, _) ->
            step app;
            drive ()
      in
      drive ();
      let exec_time =
        List.fold_left (fun acc a -> Float.max acc a.clock) !makespan apps
      in
      sweep_failures exec_time;
      Array.iter
        (fun st ->
          policy.Policy.catch_up st ~now:exec_time;
          Disk_state.finalize st ~at:exec_time)
        disks;
      let program =
        String.concat "+" (List.map (fun s -> Stream.program s) streams)
      in
      (match timeline with
      | None -> ()
      | Some sink ->
          Timeline.set_label sink ~scheme:policy.Policy.name ~program;
          if Array.length config.Config.fleet > 0 then
            Timeline.set_fleet sink
              (List.map Dpm_disk.Specs.name_of
                 (Array.to_list config.Config.fleet));
          Timeline.emit sink (Timeline.Sim_end exec_time));
      let disk_stats =
        Array.map
          (fun st ->
            {
              Result.energy = Disk_state.energy st;
              busy = Disk_state.busy_intervals st;
              requests = Disk_state.requests_served st;
              transitions = Disk_state.transition_count st;
              spin_downs = Disk_state.spin_down_count st;
              level_residency = Disk_state.level_residency st;
              standby_time = Disk_state.standby_residency st;
              transition_time = Disk_state.transition_residency st;
            })
          disks
      in
      {
        Result.scheme = policy.Policy.name;
        program;
        exec_time;
        energy =
          Array.fold_left
            (fun acc (d : Result.disk_stats) -> acc +. d.Result.energy)
            0.0 disk_stats;
        disks = disk_stats;
        gap_choices = List.rev !gap_choices;
        faults =
          (match fault with
          | None -> Result.no_faults
          | Some fs -> Fault.stats fs ~exec_time);
      }

let run_many_stream ?(config = Config.default) ?(mode = `Open)
    ?(faults = Fault.none) ?timeline policy streams =
  let ndisks =
    match streams with
    | [] -> invalid_arg "Engine.run_many: no traces"
    | s :: _ -> Stream.ndisks s
  in
  let nblocks =
    lazy (List.fold_left (fun acc s -> max acc (Stream.nblocks s)) 0 streams)
  in
  let fault = Fault.init faults ~ndisks ~nblocks in
  let obs = make_obs () in
  let result =
    Dpm_util.Telemetry.span
      ~args:(fun () ->
        [
          ("scheme", policy.Policy.name);
          ( "program",
            String.concat "+" (List.map (fun s -> Stream.program s) streams)
          );
        ])
      Dpm_util.Telemetry.global "sim.replay"
      (fun () ->
        replay_many ~config ~mode ~fault ~timeline ~obs policy streams)
  in
  flush_obs obs result;
  record_replay result;
  result

let run_many ?config ?mode ?faults ?timeline policy traces =
  run_many_stream ?config ?mode ?faults ?timeline policy
    (List.map Stream.of_trace traces)
