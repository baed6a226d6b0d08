module Ir = Dpm_ir
module Layout = Dpm_layout

type t = {
  durations : float array array;
  starts : float array array;
  total : float;
}

let rebuild_starts durations =
  let clock = ref 0.0 in
  let starts =
    Array.map
      (fun per_item ->
        Array.map
          (fun d ->
            let s = !clock in
            clock := !clock +. d;
            s)
          per_item)
      durations
  in
  (starts, !clock)

let item_slots (p : Ir.Program.t) =
  let closed x = invalid_arg ("Estimate: unbound iterator " ^ x) in
  List.map
    (fun node ->
      match node with
      | Ir.Loop.For l ->
          let lo = Ir.Expr.eval closed l.lo and hi = Ir.Expr.eval closed l.hi in
          let trips = if hi < lo then 0 else ((hi - lo) / l.step) + 1 in
          (max trips 1, lo, l.step)
      | Ir.Loop.Stmt _ | Ir.Loop.Call _ -> (1, 0, 1))
    p.body

(* The walk's clock state, in one all-float record so updates do not
   box. *)
type clock = { mutable now : float; mutable slot_start : float }

let profile ?(cost = Ir.Cost.default)
    ?(cache_blocks = Dpm_trace.Generate.default_config.cache_blocks) ~specs
    (p : Ir.Program.t) plan =
  let slots = Array.of_list (item_slots p) in
  let durations =
    Array.map (fun (n, _, _) -> Array.make n 0.0) slots
  in
  let top = Dpm_disk.Rpm.max_level specs in
  let clock = { now = 0.0; slot_start = 0.0 } in
  let pending_cycles = ref 0 in
  (* Slot currently accumulating time. *)
  let cur_item = ref 0 and cur_ord = ref 0 in
  let flush_cycles () =
    clock.now <- clock.now +. Ir.Cost.seconds cost !pending_cycles;
    pending_cycles := 0
  in
  let close_slot () =
    flush_cycles ();
    durations.(!cur_item).(!cur_ord) <-
      durations.(!cur_item).(!cur_ord) +. (clock.now -. clock.slot_start);
    clock.slot_start <- clock.now
  in
  Dpm_trace.Walk.run ~cost ~cache_blocks p plan
    {
      on_enter =
        (fun ~nest ~depth ~value ->
          if depth = 0 then begin
            close_slot ();
            let _, lo, step = slots.(nest) in
            cur_item := nest;
            cur_ord := (value - lo) / step
          end;
          pending_cycles := !pending_cycles + cost.loop_overhead);
      on_stmt =
        (fun ~nest ~cycles ->
          if nest <> !cur_item then begin
            (* Top-level statement item. *)
            close_slot ();
            cur_item := nest;
            cur_ord := 0
          end;
          pending_cycles := !pending_cycles + cycles);
      on_miss =
        (fun ~nest:_ ~disk:_ ~block:_ ~bytes ~write:_ ->
          flush_cycles ();
          clock.now <-
            clock.now +. Dpm_disk.Service.request_time specs ~level:top ~bytes);
      on_call = (fun ~nest:_ _ -> ());
    };
  close_slot ();
  let starts, total = rebuild_starts durations in
  { durations; starts; total }

let perturb ~noise ~seed t =
  if noise < 0.0 then invalid_arg "Estimate.perturb: negative noise";
  let rng = Dpm_util.Rng.create seed in
  let durations =
    Array.map
      (fun per_item ->
        let bias = 1.0 +. Dpm_util.Rng.symmetric rng noise in
        Array.map
          (fun d ->
            let jitter = 1.0 +. Dpm_util.Rng.symmetric rng (noise /. 4.0) in
            d *. bias *. jitter)
          per_item)
      t.durations
  in
  let starts, total = rebuild_starts durations in
  { durations; starts; total }

let iteration_start t ~item ~ordinal = t.starts.(item).(ordinal)

let iteration_end t ~item ~ordinal =
  t.starts.(item).(ordinal) +. t.durations.(item).(ordinal)

let locate t time =
  let nitems = Array.length t.starts in
  (* Find the last (item, ordinal) whose start <= time. *)
  let result = ref (0, 0) in
  (try
     for i = 0 to nitems - 1 do
       let per_item = t.starts.(i) in
       for o = 0 to Array.length per_item - 1 do
         if per_item.(o) <= time then result := (i, o) else raise Exit
       done
     done
   with Exit -> ());
  !result
