(* The repository benchmark: one command, three workloads.

     main.exe --workload paper-grid|trace-replay|serve-mix --seed N
              --seconds S --trace 0|1 --dpmsim PATH [--out DIR]

   Prints every metric as "name value unit", then, as the last line of
   standard output, one JSON object with the keys correct, attempted,
   failed and metrics.  With --trace 0 the metrics are the end-to-end
   ones, measured untraced; with --trace 1 a separate traced run gives
   the per-layer ones and writes its spans to DIR.  Any output that
   fails its check counts as failed and makes the exit code 1. *)

open Common

let usage () =
  prerr_endline
    "usage: main.exe --workload paper-grid|trace-replay|serve-mix --seed N \
     --seconds S --trace 0|1 --dpmsim PATH [--out DIR]";
  exit 2

let parse_args () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec go acc = function
    | key :: value :: rest when String.starts_with ~prefix:"--" key ->
        go ((key, value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] args in
  let get key = match List.assoc_opt key kv with Some v -> v | None -> usage () in
  let int key = match int_of_string_opt (get key) with Some n -> n | None -> usage () in
  {
    workload = get "--workload";
    seed = int "--seed";
    seconds = float_of_int (int "--seconds");
    trace = int "--trace" <> 0;
    dpmsim = get "--dpmsim";
    out_dir = Option.value ~default:"_perfbench" (List.assoc_opt "--out" kv);
    domains = max 1 (Domain.recommended_domain_count ());
  }

let json_line (o : outcome) =
  let open Dpm_util.Json in
  to_string
    (Obj
       [
         ("correct", Bool (o.failed = 0));
         ("attempted", Int o.attempted);
         ("failed", Int o.failed);
         ( "metrics",
           Obj
             (List.map
                (fun m -> (m.name, Obj [ ("value", Float m.value); ("unit", Str m.unit) ]))
                o.metrics) );
       ])

let () =
  let opts = parse_args () in
  (try Unix.mkdir opts.out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let run =
    match opts.workload with
    | "paper-grid" -> Grid.run
    | "trace-replay" -> Replay.run
    | "serve-mix" -> Serve.run
    | w ->
        Printf.eprintf "unknown workload %S\n" w;
        exit 2
  in
  let o = run opts in
  (* A metric that could not be measured is a failed output too. *)
  let o =
    match List.filter (fun m -> not (Float.is_finite m.value)) o.metrics with
    | [] -> o
    | bad ->
        {
          o with
          failed = o.failed + 1;
          failures =
            o.failures
            @ List.map (fun m -> Printf.sprintf "metric %s is not finite" m.name) bad;
        }
  in
  if opts.trace then
    Tracer.write
      (Filename.concat opts.out_dir
         (Printf.sprintf "spans-%s-%d.json" opts.workload opts.seed));
  List.iter prerr_endline o.failures;
  Printf.printf "workload %s seed %d: %d attempted, %d failed\n" opts.workload
    opts.seed o.attempted o.failed;
  Printf.printf "  %-32s %16s %s\n" "failed_frac"
    (Printf.sprintf "%.6g" (float_of_int o.failed /. float_of_int (max 1 o.attempted)))
    "ratio";
  List.iter
    (fun m -> Printf.printf "  %-32s %16s %s\n" m.name (Printf.sprintf "%.6g" m.value) m.unit)
    o.metrics;
  print_endline (json_line o);
  exit (if o.failed = 0 then 0 else 1)
