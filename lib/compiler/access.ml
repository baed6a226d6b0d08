module Ir = Dpm_ir
module Layout = Dpm_layout

type t = {
  item : int;
  var : string;
  lo : int;
  step : int;
  iterations : int;
  per_disk : (int * int) list array;
  miss_counts : int array array;
}

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

(* Disks an item body may touch with the given iterator ranges in scope.
   Inner loop ranges are derived by interval analysis of their bounds. *)
let body_disks plan ranges nodes mark =
  let range x =
    match Hashtbl.find_opt ranges x with
    | Some r -> r
    | None -> invalid_arg ("Access: unbound iterator " ^ x)
  in
  let rec walk = function
    | Ir.Loop.Call _ -> ()
    | Ir.Loop.Stmt s ->
        List.iter
          (fun (r : Ir.Reference.t) ->
            let region = Ir.Reference.region range r in
            List.iter mark (Layout.Plan.region_disks plan r.array region))
          (Ir.Stmt.refs s)
    | Ir.Loop.For l ->
        let llo = Ir.Expr.bounds range l.lo in
        let lhi = Ir.Expr.bounds range l.hi in
        let lo = fst llo and hi = snd lhi in
        if hi >= lo then begin
          Hashtbl.add ranges l.var (lo, hi);
          List.iter walk l.body;
          Hashtbl.remove ranges l.var
        end
  in
  List.iter walk nodes

let of_loop plan ~item (l : Ir.Loop.t) =
  let closed x = invalid_arg ("Access: unbound iterator " ^ x) in
  let lo = Ir.Expr.eval closed l.lo and hi = Ir.Expr.eval closed l.hi in
  let iterations = if hi < lo then 0 else ((hi - lo) / l.step) + 1 in
  let ndisks = Layout.Plan.ndisks plan in
  let flags = Array.init ndisks (fun _ -> Array.make iterations false) in
  let ranges = Hashtbl.create 8 in
  for ord = 0 to iterations - 1 do
    let v = lo + (ord * l.step) in
    Hashtbl.replace ranges l.var (v, v);
    body_disks plan ranges l.body (fun d -> flags.(d).(ord) <- true)
  done;
  {
    item;
    var = l.var;
    lo;
    step = l.step;
    iterations;
    per_disk = Array.map runs_of_bools flags;
    miss_counts =
      Array.map (fun fl -> Array.map (fun b -> if b then 1 else 0) fl) flags;
  }

let of_stmt plan ~item (s : Ir.Stmt.t) =
  let ndisks = Layout.Plan.ndisks plan in
  let flags = Array.init ndisks (fun _ -> Array.make 1 false) in
  let ranges = Hashtbl.create 1 in
  body_disks plan ranges [ Ir.Loop.Stmt s ] (fun d -> flags.(d).(0) <- true);
  {
    item;
    var = Printf.sprintf "<item%d>" item;
    lo = 0;
    step = 1;
    iterations = 1;
    per_disk = Array.map runs_of_bools flags;
    miss_counts =
      Array.map (fun fl -> Array.map (fun b -> if b then 1 else 0) fl) flags;
  }

let of_call plan ~item =
  {
    item;
    var = Printf.sprintf "<item%d>" item;
    lo = 0;
    step = 1;
    iterations = 1;
    per_disk = Array.make (Layout.Plan.ndisks plan) [];
    miss_counts = Array.make_matrix (Layout.Plan.ndisks plan) 1 0;
  }

let of_item (p : Ir.Program.t) plan ~item =
  match List.nth p.body item with
  | Ir.Loop.For l -> of_loop plan ~item l
  | Ir.Loop.Stmt s -> of_stmt plan ~item s
  | Ir.Loop.Call _ -> of_call plan ~item

let of_program (p : Ir.Program.t) plan =
  List.mapi (fun item _ -> of_item p plan ~item) p.body

let of_program_cached
    ?(cache_blocks = Dpm_trace.Generate.default_config.cache_blocks)
    (p : Ir.Program.t) plan =
  let ndisks = Layout.Plan.ndisks plan in
  let closed x = invalid_arg ("Access: unbound iterator " ^ x) in
  (* Shape of each item: (var, lo, step, iterations). *)
  let shapes =
    Array.of_list
      (List.map
         (fun node ->
           match node with
           | Ir.Loop.For l ->
               let lo = Ir.Expr.eval closed l.lo
               and hi = Ir.Expr.eval closed l.hi in
               let trips = if hi < lo then 0 else ((hi - lo) / l.step) + 1 in
               (l.var, lo, l.step, max trips 1)
           | Ir.Loop.Stmt _ | Ir.Loop.Call _ ->
               (Printf.sprintf "<item>", 0, 1, 1))
         p.body)
  in
  let is_stmt =
    Array.of_list
      (List.map
         (function
           | Ir.Loop.Stmt _ -> true
           | Ir.Loop.For _ | Ir.Loop.Call _ -> false)
         p.body)
  in
  let counts =
    Array.map
      (fun (_, _, _, n) -> Array.init ndisks (fun _ -> Array.make n 0))
      shapes
  in
  let cur_ord = ref 0 in
  Dpm_trace.Walk.run ~cache_blocks p plan
    {
      on_enter =
        (fun ~nest ~depth ~value ->
          if depth = 0 then begin
            let _, lo, step, _ = shapes.(nest) in
            cur_ord := (value - lo) / step
          end);
      on_stmt = (fun ~nest ~cycles:_ -> if is_stmt.(nest) then cur_ord := 0);
      on_miss =
        (fun ~nest ~disk ~block:_ ~bytes:_ ~write:_ ->
          let c = counts.(nest).(disk) in
          c.(!cur_ord) <- c.(!cur_ord) + 1);
      on_call = (fun ~nest:_ _ -> ());
    };
  List.mapi
    (fun item _ ->
      let var, lo, step, iterations = shapes.(item) in
      {
        item;
        var;
        lo;
        step;
        iterations;
        per_disk =
          Array.map
            (fun cs -> runs_of_bools (Array.map (fun c -> c > 0) cs))
            counts.(item);
        miss_counts = counts.(item);
      })
    p.body

let window_requests t ~disk ~lo ~hi =
  let cs = t.miss_counts.(disk) in
  let n = Array.length cs in
  let total = ref 0 in
  for o = max 0 lo to min (n - 1) hi do
    total := !total + cs.(o)
  done;
  !total

let disks_active t ~ordinal =
  let active = ref [] in
  Array.iteri
    (fun d runs ->
      if List.exists (fun (a, b) -> ordinal >= a && ordinal <= b) runs then
        active := d :: !active)
    t.per_disk;
  List.rev !active

let value_of_ordinal t ord = t.lo + (ord * t.step)
