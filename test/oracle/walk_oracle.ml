(* Trace generation, reuse-aware access analysis and the timing profile
   as three independent walks through the interpreted Dpm_ir.Enumerate,
   resolving every access through the Plan lookups: the code the
   compiled Dpm_trace.Walk folds replaced.  The compiled versions must
   agree with these exactly (floats bit for bit, errors included).  The
   buffer cache is Dpm_cache.Lru, which has its own oracle in
   test_cache.ml. *)

module Ir = Dpm_ir
module Plan = Dpm_layout.Plan
module Request = Dpm_trace.Request
module Lru = Dpm_cache.Lru

let unit_bytes plan name u =
  let entry = Plan.entry plan name in
  let ss = entry.Plan.striping.Dpm_layout.Striping.stripe_size in
  let file = Ir.Array_decl.size_bytes entry.Plan.decl in
  min ss (file - (u * ss))

(* The unit [r] touches, if it misses the cache. *)
let miss cache plan (r : Ir.Reference.t) env =
  let idx = Ir.Reference.eval env r in
  let u = Plan.element_unit plan r.array idx in
  if Lru.touch cache (Plan.unit_global_block plan r.array u) then None
  else Some u

let generate ~(config : Dpm_trace.Generate.config) (p : Ir.Program.t) plan =
  let cache = Lru.create ~capacity:config.cache_blocks in
  let events = ref [] in
  let pending_cycles = ref 0 in
  let current_iter = ref 0 in
  let flush_think () =
    let t = Ir.Cost.seconds config.cost !pending_cycles in
    pending_cycles := 0;
    t
  in
  let touch ~nest ~kind (r : Ir.Reference.t) env =
    match miss cache plan r env with
    | None -> ()
    | Some u ->
        events :=
          Request.Io
            {
              think = flush_think ();
              disk = Plan.unit_disk plan r.array u;
              block = Plan.unit_global_block plan r.array u;
              bytes = unit_bytes plan r.array u;
              kind;
              nest;
              iter = !current_iter;
            }
          :: !events
  in
  Ir.Enumerate.run
    {
      on_enter =
        (fun ~nest:_ ~depth ~var:_ ~value ->
          if depth = 0 then current_iter := value;
          pending_cycles := !pending_cycles + config.cost.loop_overhead);
      on_stmt =
        (fun ~nest s env ->
          pending_cycles := !pending_cycles + Ir.Cost.stmt_cycles config.cost s;
          List.iter (fun r -> touch ~nest ~kind:Request.Read r env) s.reads;
          Option.iter (fun w -> touch ~nest ~kind:Request.Write w env) s.write);
      on_call =
        (fun ~nest:_ call _ ->
          let directive =
            match call with
            | Ir.Loop.Spin_down d -> Request.Spin_down d
            | Ir.Loop.Spin_up d -> Request.Spin_up d
            | Ir.Loop.Set_rpm { level; disk } -> Request.Set_rpm { level; disk }
          in
          events := Request.Pm { think = flush_think (); directive } :: !events);
    }
    p;
  let tail_think = flush_think () in
  (List.rev !events, tail_think)

let runs_of_bools flags =
  let runs = ref [] in
  let start = ref (-1) in
  Array.iteri
    (fun i b ->
      if b && !start < 0 then start := i
      else if (not b) && !start >= 0 then begin
        runs := (!start, i - 1) :: !runs;
        start := -1
      end)
    flags;
  if !start >= 0 then runs := (!start, Array.length flags - 1) :: !runs;
  List.rev !runs

let access_cached ~cache_blocks (p : Ir.Program.t) plan =
  let ndisks = Plan.ndisks plan in
  let closed x = invalid_arg ("Access: unbound iterator " ^ x) in
  let shapes =
    Array.of_list
      (List.map
         (function
           | Ir.Loop.For l ->
               let lo = Ir.Expr.eval closed l.lo and hi = Ir.Expr.eval closed l.hi in
               let trips = if hi < lo then 0 else ((hi - lo) / l.step) + 1 in
               (l.var, lo, l.step, max trips 1)
           | Ir.Loop.Stmt _ | Ir.Loop.Call _ -> ("<item>", 0, 1, 1))
         p.body)
  in
  let counts =
    Array.map (fun (_, _, _, n) -> Array.init ndisks (fun _ -> Array.make n 0)) shapes
  in
  let cache = Lru.create ~capacity:cache_blocks in
  let cur_ord = ref 0 in
  let touch ~nest (r : Ir.Reference.t) env =
    match miss cache plan r env with
    | None -> ()
    | Some u ->
        let disk = Plan.unit_disk plan r.array u in
        counts.(nest).(disk).(!cur_ord) <- counts.(nest).(disk).(!cur_ord) + 1
  in
  Ir.Enumerate.run
    {
      on_enter =
        (fun ~nest ~depth ~var:_ ~value ->
          if depth = 0 then begin
            let _, lo, step, _ = shapes.(nest) in
            cur_ord := (value - lo) / step
          end);
      on_stmt =
        (fun ~nest s env ->
          (match List.nth p.body nest with
          | Ir.Loop.Stmt _ -> cur_ord := 0
          | Ir.Loop.For _ | Ir.Loop.Call _ -> ());
          List.iter (fun r -> touch ~nest r env) s.Ir.Stmt.reads;
          Option.iter (fun w -> touch ~nest w env) s.Ir.Stmt.write);
      on_call = (fun ~nest:_ _ _ -> ());
    }
    p;
  List.mapi
    (fun item _ ->
      let var, lo, step, iterations = shapes.(item) in
      {
        Dpm_compiler.Access.item;
        var;
        lo;
        step;
        iterations;
        per_disk =
          Array.map (fun cs -> runs_of_bools (Array.map (fun c -> c > 0) cs)) counts.(item);
        miss_counts = counts.(item);
      })
    p.body

let profile ~cost ~cache_blocks ~specs (p : Ir.Program.t) plan =
  let closed x = invalid_arg ("Estimate: unbound iterator " ^ x) in
  let slots =
    Array.of_list
      (List.map
         (function
           | Ir.Loop.For l ->
               let lo = Ir.Expr.eval closed l.lo and hi = Ir.Expr.eval closed l.hi in
               let trips = if hi < lo then 0 else ((hi - lo) / l.step) + 1 in
               (max trips 1, lo, l.step)
           | Ir.Loop.Stmt _ | Ir.Loop.Call _ -> (1, 0, 1))
         p.body)
  in
  let durations = Array.map (fun (n, _, _) -> Array.make n 0.0) slots in
  let cache = Lru.create ~capacity:cache_blocks in
  let top = Dpm_disk.Rpm.max_level specs in
  let clock = ref 0.0 in
  let pending_cycles = ref 0 in
  let cur_item = ref 0 and cur_ord = ref 0 and slot_start = ref 0.0 in
  let flush_cycles () =
    clock := !clock +. Ir.Cost.seconds cost !pending_cycles;
    pending_cycles := 0
  in
  let close_slot () =
    flush_cycles ();
    durations.(!cur_item).(!cur_ord) <-
      durations.(!cur_item).(!cur_ord) +. (!clock -. !slot_start);
    slot_start := !clock
  in
  let touch (r : Ir.Reference.t) env =
    match miss cache plan r env with
    | None -> ()
    | Some u ->
        flush_cycles ();
        clock :=
          !clock
          +. Dpm_disk.Service.request_time specs ~level:top
               ~bytes:(unit_bytes plan r.array u)
  in
  Ir.Enumerate.run
    {
      on_enter =
        (fun ~nest ~depth ~var:_ ~value ->
          if depth = 0 then begin
            close_slot ();
            let _, lo, step = slots.(nest) in
            cur_item := nest;
            cur_ord := (value - lo) / step
          end;
          pending_cycles := !pending_cycles + cost.Ir.Cost.loop_overhead);
      on_stmt =
        (fun ~nest s env ->
          if nest <> !cur_item then begin
            close_slot ();
            cur_item := nest;
            cur_ord := 0
          end;
          pending_cycles := !pending_cycles + Ir.Cost.stmt_cycles cost s;
          List.iter (fun r -> touch r env) s.Ir.Stmt.reads;
          Option.iter (fun w -> touch w env) s.Ir.Stmt.write);
      on_call = (fun ~nest:_ _ _ -> ());
    }
    p;
  close_slot ();
  let clock = ref 0.0 in
  let starts =
    Array.map
      (Array.map (fun d ->
           let s = !clock in
           clock := !clock +. d;
           s))
      durations
  in
  { Dpm_compiler.Estimate.durations; starts; total = !clock }
