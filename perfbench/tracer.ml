(* Spans of the traced benchmark run, on a private [Telemetry]
   collector that only the benchmark's own spans write to.

   Spans are taken by the benchmark's own code around its calls into
   the libraries; nothing inside the libraries is instrumented.
   [Telemetry] records each span's name, start, end, parent (the span
   open on the same domain when it began) and domain, and keeps them in
   memory until the run ends.  Each span's args add the job it belongs
   to, the minor-heap words its domain allocated inside it and its work
   count (events, bytes).  A layer is the span name's first
   dot-separated component (["sim.replay.base"] belongs to [sim]). *)

module Telemetry = Dpm_util.Telemetry

let collector = Telemetry.create ()
let set_enabled on = Telemetry.set_tracing collector on
let tracing () = Telemetry.tracing collector
let spans () = Telemetry.spans collector
let reset () = Telemetry.reset collector

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> Telemetry.write_chrome_trace ~process_name:"perfbench" collector oc)

(* The job the current domain is working for; [-1] outside any job. *)
let job_key = Domain.DLS.new_key (fun () -> -1)

let with_job job f =
  let saved = Domain.DLS.get job_key in
  Domain.DLS.set job_key job;
  Fun.protect ~finally:(fun () -> Domain.DLS.set job_key saved) f

(* [span name f] runs [f]; when tracing is on it records a span, whose
   work count is [items] applied to the result (default 0). *)
let span ?(items = fun _ -> 0) name f =
  if not (Telemetry.tracing collector) then f ()
  else begin
    let w0 = Gc.minor_words () in
    let n = ref 0 in
    Telemetry.span collector name
      ~args:(fun () ->
        [
          ("job", string_of_int (Domain.DLS.get job_key));
          ("minor_words", Printf.sprintf "%.17g" (Gc.minor_words () -. w0));
          ("items", string_of_int !n);
        ])
      (fun () ->
        let r = f () in
        n := items r;
        r)
  end

let duration (s : Telemetry.span) = s.t1 -. s.t0
let arg (s : Telemetry.span) key = float_of_string (List.assoc key s.args)

let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

let layers = [ "ir"; "workloads"; "compiler"; "trace"; "sim"; "core"; "service" ]

(* Self seconds summed per layer, in [layers] order: a span's duration
   minus the time its direct children cover (children run on the
   parent's domain, inside its interval). *)
let self_by_layer spans =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun (s : Telemetry.span) ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent)))
    spans;
  let self = Hashtbl.create 8 in
  List.iter
    (fun (s : Telemetry.span) ->
      let layer = layer_of s.name in
      Hashtbl.replace self layer
        (duration s
        -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id)
        +. Option.value ~default:0.0 (Hashtbl.find_opt self layer)))
    spans;
  List.map (fun l -> (l, Option.value ~default:0.0 (Hashtbl.find_opt self l))) layers

(* Summed duration, call count, work count and minor words of the spans
   whose name starts with [prefix]. *)
let total prefix spans =
  List.fold_left
    (fun (t, n, items, words) (s : Telemetry.span) ->
      if String.starts_with ~prefix s.name then
        (t +. duration s, n + 1, items + int_of_float (arg s "items"), words +. arg s "minor_words")
      else (t, n, items, words))
    (0.0, 0, 0, 0.0) spans
