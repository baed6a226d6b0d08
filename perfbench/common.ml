(* Shared plumbing: run options, statistics, process memory, and the
   outcome every workload returns. *)

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  dpmsim : string;  (** Path of the built [dpmsim] executable. *)
  out_dir : string;  (** Scratch directory inside the checkout. *)
  domains : int;  (** [nproc]: the grid's fan-out and the daemon's pool. *)
}

type metric = { name : string; value : float; unit : string }

type outcome = {
  attempted : int;
  failed : int;
  metrics : metric list;
  failures : string list;  (** One line per failed check. *)
}

let metric name value unit = { name; value; unit }
let now = Dpm_util.Metrics.now

(* Quantile by linear interpolation between closest ranks (Python's
   [statistics.quantiles] "inclusive" method). *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> invalid_arg "quantile: no samples"
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      if i >= Array.length a - 1 then a.(Array.length a - 1)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

(* Reads to end of file: /proc files report a length of 0. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> In_channel.input_all ic)

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match read_file path with
  | exception Sys_error _ -> nan
  | status ->
      String.split_on_char '\n' status
      |> List.find_map (fun line ->
             if String.starts_with ~prefix:"VmHWM:" line then
               Scanf.sscanf_opt
                 (String.sub line 6 (String.length line - 6))
                 " %d" (fun kb -> float_of_int kb /. 1024.0)
             else None)
      |> Option.value ~default:nan

(* Run [f] repeatedly while the measurement window lasts, and at least
   [min] times; returns the per-call wall times and results, in order. *)
let repeat_for ~seconds ~min f =
  let t_end = now () +. seconds in
  let rec go n acc =
    if n >= min && now () >= t_end then List.rev acc
    else begin
      let t0 = now () in
      let r = f n in
      go (n + 1) ((now () -. t0, r) :: acc)
    end
  in
  go 0 []

let rel_diff a b =
  if a = b then 0.0 else Float.abs (a -. b) /. Float.max (Float.abs a) (Float.abs b)
