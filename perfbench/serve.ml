(* serve-mix: one [dpmsim serve] daemon on a Unix socket, driven by a
   single client process over [nproc] connections.

   The job mix has three classes: compile-heavy suite jobs with a CM
   scheme, open-loop multi-tenant jobs (Openloop.merge + replay of
   small seeded trace files, no compilation), and metered jobs, which
   stream many small sample frames before their report frame.  A pass
   is a closed batch of 40 jobs of the mix, sent as fast as the
   connections take them; each job is timed from the start of the
   pass, so waiting for a free connection counts.

   Every job's results must equal a direct [Run.exec_all] of its spec,
   computed in set-up, and a metered job's samples must integrate to
   each scheme's energy. *)

open Common
module Sim = Dpm_sim
module Trace = Dpm_trace
module Json = Dpm_util.Json
module Scheme = Dpm_core.Scheme
module Run = Dpm_core.Run
module Report = Dpm_core.Report

(* --- the job mix ------------------------------------------------- *)

type job_spec = {
  cls : string;  (** "compile", "open-loop" or "metered". *)
  meter : float option;  (** Meter resolution, for metered jobs. *)
  frame : string;  (** The submit frame, one line. *)
  expected : string;  (** The report's "schemes" member, serialized. *)
  energies : (string * float) list;  (** Per scheme, for metered jobs. *)
}

let compile_job = ("mesa", [ "Base"; "CMTPM" ])

(* A small trace file: one array of 2048 stripe units swept [sweeps]
   times through the default 1024-unit cache (2048 I/O events a sweep).
   The work per element differs by file, the same for every seed, so
   that every seed's jobs cost the same. *)
let small_trace ~work ~sweeps path =
  let src =
    Printf.sprintf
      "array S[256][64] : 8192\n\
       for s = 1 to %d { for i = 0 to 255 { for j = 0 to 63 { use S[i][j] work %d } } }\n"
      sweeps work
  in
  let p = Dpm_ir.Parser.program ~name:(Filename.basename path) src in
  Trace.Trace.save (Trace.Generate.run p (Dpm_workloads.Suite.default_plan p)) path

(* Execute a spec the way the daemon does (timeline sinks, optional
   meters, Report.document) and keep what a job's reply must match. *)
let direct spec ~meter =
  let ( let* ) = Result.bind in
  let result =
    let* schemes = Run.schemes_of spec in
    let sinks = List.map (fun s -> (s, Sim.Timeline.sink ())) schemes in
    let spec = Run.with_timeline (fun s -> List.assoc_opt s sinks) spec in
    let* results = Run.exec_all spec in
    let* label, setup = Run.describe spec in
    let report =
      Tracer.span "core.report" (fun () ->
          Report.document ~label ~mode:setup.Dpm_core.Experiment.mode
            ~version:setup.version ~faults:setup.faults ~sim:setup.sim
            ~timeline_of:(fun s -> Sim.Timeline.contents (List.assoc s sinks))
            results)
    in
    Ok (report, results)
  in
  match result with
  | Error e -> failwith ("serve-mix set-up: " ^ Run.error_message e)
  | Ok (report, results) ->
      let sj = match Run.to_json spec with Ok j -> j | Error e -> failwith (Run.error_message e) in
      ( {
        cls = "";
        meter;
        frame =
          Json.to_string
            (Json.Obj
               ([ ("op", Json.Str "submit"); ("spec", sj) ]
               @ match meter with None -> [] | Some r -> [ ("meter", Json.Float r) ]));
        expected =
          Json.to_string (Option.get (Json.member "schemes" report));
        energies =
          List.map (fun (s, r) -> (Scheme.name s, r.Sim.Result.energy)) results;
      },
        results )

let build_mix opts =
  let dir = opts.out_dir in
  let files =
    List.init 3 (fun k ->
        let path = Filename.concat dir (Printf.sprintf "serve-%d-%d.trc" opts.seed k) in
        small_trace ~work:(300 + (100 * k)) ~sweeps:1 path;
        path)
  in
  let compile =
    let b, schemes = compile_job in
    let js, _ = direct (Run.spec ~scheme_names:schemes (Run.Benchmark b)) ~meter:None in
    { js with cls = "compile" }
  in
  let open_loop =
    List.init 3 (fun k ->
        let load =
          Trace.Openloop.make ~arrival:(Trace.Openloop.Poisson 0.5) ~jobs:3
            ~seed:(opts.seed + k) ()
        in
        if Tracer.tracing () then begin
          (* The merge the daemon performs, drained on its own. *)
          let traces = List.map Trace.Trace.load files in
          let plan = Trace.Openloop.plan load ~nsources:3 in
          Tracer.span "trace.merge"
            ~items:(fun n -> n)
            (fun () ->
              let merged =
                Trace.Openloop.merge
                  (Array.to_list plan
                  |> List.map (fun (start, i) ->
                         (start, Trace.Trace.Stream.of_trace (List.nth traces i))))
              in
              let n = ref 0 in
              Trace.Trace.Stream.iter (fun _ -> incr n) merged;
              !n)
          |> ignore
        end;
        let js, _ =
          direct
            (Run.spec ~scheme_names:[ "Base"; (if k = 1 then "DRPM" else "TPM") ]
               (Run.Open_loop { load; sources = files }))
            ~meter:None
        in
        { js with cls = "open-loop" })
  in
  (* Metered jobs pick their resolution so each scheme streams about
     25 windows per disk. *)
  let metered =
    List.map
      (fun (file, scheme) ->
        let spec = Run.spec ~scheme_names:[ "Base"; scheme ] (Run.Trace_file file) in
        let exec_time =
          match Run.exec spec with
          | Ok r -> r.Sim.Result.exec_time
          | Error e -> failwith (Run.error_message e)
        in
        { (fst (direct spec ~meter:(Some (exec_time /. 25.0)))) with cls = "metered" })
      [ (List.nth files 0, "DRPM"); (List.nth files 1, "TPM"); (List.nth files 2, "CMDRPM") ]
  in
  (Array.of_list ((compile :: open_loop) @ metered), files)

(* --- the daemon -------------------------------------------------- *)

type daemon = { pid : int; socket : string }

let connect_fd socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Some fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      None

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let open_conn ?(timeout = 30.0) socket =
  let deadline = now () +. timeout in
  let rec go () =
    match connect_fd socket with
    | Some fd ->
        { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
    | None ->
        if now () > deadline then failwith ("serve-mix: cannot connect to " ^ socket);
        Unix.sleepf 0.002;
        go ()
  in
  go ()

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc

let recv c =
  match input_line c.ic with
  | line -> line
  | exception End_of_file -> failwith "serve-mix: daemon closed the connection"

let op c name =
  send c (Printf.sprintf {|{"op":"%s"}|} name);
  recv c

let spawn opts socket =
  let log =
    Unix.openfile
      (Filename.concat opts.out_dir "serve-daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let pid =
    Unix.create_process opts.dpmsim
      [|
        opts.dpmsim; "serve"; "--socket"; socket; "--domains";
        string_of_int opts.domains;
      |]
      Unix.stdin log log
  in
  Unix.close log;
  { pid; socket }

(* Ask the daemon to drain and exit, and reap it. *)
let stop d =
  (match open_conn ~timeout:2.0 d.socket with
  | c ->
      ignore (op c "shutdown");
      close_conn c
  | exception Failure _ -> Unix.kill d.pid Sys.sigterm);
  ignore (Unix.waitpid [] d.pid)

(* Spawn and wait until [ping] answers. *)
let start opts socket =
  let d = spawn opts socket in
  let c = open_conn socket in
  let pong = op c "ping" in
  close_conn c;
  if not (String.equal pong {|{"ok":"pong"}|}) then begin
    stop d;
    failwith ("serve-mix: unexpected ping reply " ^ pong)
  end;
  d

(* --- one job on one connection ----------------------------------- *)

type record = {
  job : int;
  cls : string;
  picked : float;  (** Seconds from the start of the pass to the submit. *)
  accept_s : float;  (** Submit until the accepted frame. *)
  exec_s : float;  (** Accepted frame until the report frame. *)
  samples : int;
  frame_bytes : int;
  decode_s : float;
  rejected : bool;
  error : string option;
}

let member_str k j = Option.bind (Json.member k j) Json.to_str

(* Submit one job and read its frames: the accepted frame, then any
   sample frames, then the report. *)
let exchange c (js : job_spec) ~job ~start =
  let picked = now () -. start in
  let decode = ref 0.0 and bytes = ref 0 and samples = ref 0 in
  let read () =
    let line = recv c in
    let t0 = now () in
    let j = match Json.parse_string line with Ok j -> j | Error m -> failwith m in
    decode := !decode +. (now () -. t0);
    bytes := !bytes + String.length line + 1;
    j
  in
  let integrals = Hashtbl.create 4 in
  let rec report () =
    let j = read () in
    match (Json.member "report" j, Json.member "sample" j, member_str "error" j) with
    | Some r, _, _ ->
        let got = Json.to_string (Option.get (Json.member "schemes" r)) in
        if not (String.equal got js.expected) then
          Some "report differs from direct Run.exec_all"
        else if js.meter = None then None
        else
          List.find_map
            (fun (scheme, energy) ->
              let integral = Option.value ~default:0.0 (Hashtbl.find_opt integrals scheme) in
              if rel_diff integral energy > 1e-6 then
                Some
                  (Printf.sprintf "%s: sample integral %.9g J vs energy %.9g J" scheme
                     integral energy)
              else None)
            js.energies
    | None, Some s, _ ->
        let num k = Option.value ~default:nan (Option.bind (Json.member k s) Json.to_float) in
        let scheme = Option.value ~default:"" (member_str "scheme" j) in
        Hashtbl.replace integrals scheme
          ((num "watts" *. (num "t1" -. num "t0"))
          +. Option.value ~default:0.0 (Hashtbl.find_opt integrals scheme));
        incr samples;
        report ()
    | None, None, Some kind -> Some ("daemon error: " ^ kind)
    | None, None, None -> Some ("unexpected frame: " ^ Json.to_string j)
  in
  Tracer.with_job job @@ fun () ->
  Tracer.span "service.job" @@ fun () ->
  let t0 = now () in
  let first =
    Tracer.span "service.accept" (fun () ->
        send c js.frame;
        read ())
  in
  let t1 = now () in
  let error, rejected =
    match (member_str "ok" first, member_str "error" first) with
    | Some "accepted", _ -> (Tracer.span "service.exec" report, false)
    | _, Some kind -> (Some ("daemon error: " ^ kind), kind = "queue-full")
    | _ -> (Some ("unexpected frame: " ^ Json.to_string first), false)
  in
  {
    job; cls = js.cls; picked; accept_s = t1 -. t0; exec_s = now () -. t1;
    samples = !samples; frame_bytes = !bytes; decode_s = !decode; rejected; error;
  }

(* --- closed passes ----------------------------------------------- *)

(* A pass sends the mix in this order (compile 0, open-loop 1-3,
   metered 4-6) four times over: a fifth of the jobs compile, half are
   open-loop and three tenths metered. *)
let deck = [| 0; 0; 1; 2; 3; 1; 2; 4; 5; 6 |]
let pass_jobs = Array.init (4 * Array.length deck) (fun i -> deck.(i mod Array.length deck))

(* One pass over [nconn] connections, each on its own domain taking the
   next job as soon as it is free; returns the makespan and the jobs'
   records.  Job ids are unique over the run. *)
let pass ~socket ~nconn mix ~index =
  let next = Atomic.make 0 in
  let start = now () in
  let worker _ =
    let c = open_conn socket in
    Fun.protect ~finally:(fun () -> close_conn c) @@ fun () ->
    let rec loop acc =
      let i = Atomic.fetch_and_add next 1 in
      if i >= Array.length pass_jobs then acc
      else
        let job = (index * Array.length pass_jobs) + i in
        loop (exchange c mix.(pass_jobs.(i)) ~job ~start :: acc)
    in
    loop []
  in
  let records = List.concat (Dpm_util.Pool.map ~domains:nconn worker (List.init nconn Fun.id)) in
  (now () -. start, records)

(* --- workload ---------------------------------------------------- *)

(* The service layer as the client sees it, per pass. *)
let service_metrics ~passes records =
  let ok = List.filter (fun r -> r.error = None) records in
  let ms f = List.map (fun r -> 1000.0 *. f r) ok in
  let q p xs = if xs = [] then 0.0 else quantile p xs in
  let per_pass x = x /. float_of_int passes in
  let sum f = List.fold_left (fun a r -> a +. f r) 0.0 records in
  let decode = sum (fun r -> r.decode_s) in
  [
    ("service.accept_ms.p50", q 0.5 (ms (fun r -> r.accept_s)));
    ("service.accept_ms.p90", q 0.9 (ms (fun r -> r.accept_s)));
    ("service.exec_ms.p50", q 0.5 (ms (fun r -> r.exec_s)));
    ("service.exec_ms.p90", q 0.9 (ms (fun r -> r.exec_s)));
    ("service.conn_wait_ms.p90", q 0.9 (ms (fun r -> r.picked)));
    ("service.rejected", per_pass (sum (fun r -> if r.rejected then 1.0 else 0.0)));
    ("service.sample_frames", per_pass (sum (fun r -> float_of_int r.samples)));
    ("service.frame_decode_s", per_pass decode);
    ( "core.json_mb_per_s",
      if decode > 0.0 then sum (fun r -> float_of_int r.frame_bytes) /. 1048576.0 /. decode
      else 0.0 );
  ]

let run opts =
  let nconn = opts.domains in
  let socket = Filename.concat opts.out_dir (Printf.sprintf "serve-%d.sock" opts.seed) in
  (* Set-up builds the mix with its expected results and starts the
     daemon until [ping] answers.  Set up five times (each daemon is
     stopped before the next binds the same socket) and keep the last;
     a traced run traces the last set-up. *)
  let setups =
    List.init 5 (fun i ->
        Tracer.set_enabled (opts.trace && i = 4);
        let t0 = now () in
        let mix, files = build_mix opts in
        let d = start opts socket in
        let dt = now () -. t0 in
        Tracer.set_enabled false;
        if i < 4 then stop d;
        (dt, (mix, files, d)))
  in
  let mix, files, daemon = snd (List.nth setups 4) in
  (* The traced set-up gives the report and merge figures; the stage
     totals come from the traced passes alone. *)
  let setup_spans = Tracer.spans () in
  Tracer.reset ();
  let stopped = ref false in
  let finish () =
    if not !stopped then begin
      stopped := true;
      stop daemon
    end;
    List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) files
  in
  Fun.protect ~finally:finish @@ fun () ->
  (* The first pass warms the daemon up and is checked but not timed.
     A traced run traces every other pass, so that traced and untraced
     passes see the same machine state. *)
  let _, warm_up = pass ~socket ~nconn mix ~index:0 in
  let passes =
    repeat_for ~seconds:opts.seconds ~min:5 (fun i ->
        let traced = opts.trace && i mod 2 = 1 in
        Tracer.set_enabled traced;
        let p = pass ~socket ~nconn mix ~index:(i + 1) in
        Tracer.set_enabled false;
        (traced, p))
  in
  let rss = peak_rss_mb (Some daemon.pid) in
  finish ();
  let makespans traced =
    List.filter_map (fun (_, (t, (m, _))) -> if t = traced then Some m else None) passes
  in
  let records = List.concat_map (fun (_, (_, (_, rs))) -> rs) passes in
  let checked = warm_up @ records in
  let failures =
    List.filter_map
      (fun r -> Option.map (fun e -> Printf.sprintf "job %d (%s): %s" r.job r.cls e) r.error)
      checked
  in
  Printf.printf "  %d passes: %s s\n" (List.length passes)
    (String.concat " " (List.map (fun (_, (_, (m, _))) -> Printf.sprintf "%.3f" m) passes));
  List.iter
    (fun cls ->
      match List.filter (fun r -> r.cls = cls && r.error = None) records with
      | [] -> ()
      | rs ->
          Printf.printf "  %-9s jobs: exec p50 %.1f ms, %.1f sample frames/job\n" cls
            (median (List.map (fun r -> 1000.0 *. r.exec_s) rs))
            (float_of_int (List.fold_left (fun a r -> a + r.samples) 0 rs)
            /. float_of_int (List.length rs)))
    [ "compile"; "open-loop"; "metered" ];
  let metrics =
    if not opts.trace then
      [
        metric "setup_s" (median (List.map fst setups)) "s";
        metric "pass_s" (median (makespans false)) "s";
        metric "peak_rss_mb" rss "MB";
      ]
    else begin
      let traced = makespans true and untraced = median (makespans false) in
      let n = List.length traced in
      Layers.metrics ~passes:n ~fallbacks:(Atomic.get Grid.fallbacks)
        ~extra:
          (("bench.trace_overhead_frac", (median traced -. untraced) /. untraced)
          :: ( "core.report_s",
               let t, calls, _, _ = Tracer.total "core.report" setup_spans in
               t /. float_of_int calls )
          :: ( "trace.merge_eps",
               let t, _, items, _ = Tracer.total "trace.merge" setup_spans in
               Layers.rate items t )
          :: service_metrics ~passes:(List.length passes) records)
        (Tracer.spans ())
    end
  in
  { attempted = List.length checked; failed = List.length failures; failures; metrics }
