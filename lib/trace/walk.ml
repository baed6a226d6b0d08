module Ir = Dpm_ir
module Plan = Dpm_layout.Plan
module Lru = Dpm_cache.Lru

type callbacks = {
  on_enter : nest:int -> depth:int -> value:int -> unit;
  on_stmt : nest:int -> cycles:int -> unit;
  on_miss :
    nest:int -> disk:int -> block:int -> bytes:int -> write:bool -> unit;
  on_call : nest:int -> Ir.Loop.pm_call -> unit;
}

(* --- lowered form --- *)

type expr = int array -> int

(* An array resolved against the plan; [dims] and [strides] are per
   source dimension, the strides already in the entry's storage order. *)
type arr = {
  dims : int array;
  strides : int array;
  elem_size : int;
  stripe_size : int;
  start_disk : int;
  factor : int;
  ndisks : int;
  base_block : int;
  file_bytes : int;
}

type target =
  | Resolved of arr
  | Raise of exn  (* a subscript fails to evaluate *)
  | Missing  (* the array is not in the plan *)
  | Wrong_rank

type access = {
  name : string;
  subs : expr array;  (* compiled subscripts, [Resolved] only *)
  target : target;
  write : bool;
}

type stmt = { cycles : int; accesses : access array }

type node =
  | Loop of loop
  | Stmt of stmt
  | Call of Ir.Loop.pm_call

and loop = { slot : int; lo : expr; hi : expr; step : int; body : node array }

(* --- expressions --- *)

let unbound x = invalid_arg ("Enumerate: unbound iterator " ^ x)

(* The error [f] raises, if any, when it evaluates expressions through
   [Expr.eval] under [scope].  The error never depends on iterator
   values, only on which names are in scope, so the interpreter itself
   decides which error comes first. *)
let error_of scope f =
  let env x = if List.mem_assoc x scope then 0 else unbound x in
  match f env with _ -> None | exception (Invalid_argument _ as e) -> Some e

(* An expression known not to raise under [scope], as a closure tree
   over the slot environment. *)
let rec total scope (e : Ir.Expr.t) : expr =
  match e with
  | Const n -> fun _ -> n
  | Var x ->
      let s = List.assoc x scope in
      fun env -> Array.unsafe_get env s
  | Add (a, b) ->
      let fa = total scope a and fb = total scope b in
      fun env -> fa env + fb env
  | Sub (a, b) ->
      let fa = total scope a and fb = total scope b in
      fun env -> fa env - fb env
  | Mul (k, a) ->
      let fa = total scope a in
      fun env -> k * fa env
  | Div (a, k) ->
      let fa = total scope a in
      fun env ->
        let n = fa env in
        if n >= 0 then n / k else -((-n + k - 1) / k)
  | Min (a, b) ->
      let fa = total scope a and fb = total scope b in
      fun env -> Int.min (fa env) (fb env)
  | Max (a, b) ->
      let fa = total scope a and fb = total scope b in
      fun env -> Int.max (fa env) (fb env)

let expr scope e =
  match error_of scope (fun env -> Ir.Expr.eval env e) with
  | Some err -> fun _ -> raise err
  | None -> total scope e

(* --- references, statements, nests --- *)

let resolve plan name (e : Plan.entry) nsubs =
  let dims = Array.of_list e.decl.Ir.Array_decl.dims in
  let rank = Array.length dims in
  if nsubs <> rank then Wrong_rank
  else begin
    (* Horner over the storage order: row-major strides grow from the
       last dimension, column-major ones from the first. *)
    let strides = Array.make rank 1 in
    let order =
      match e.order with
      | Plan.Row_major -> List.init rank (fun k -> rank - 1 - k)
      | Plan.Col_major -> List.init rank Fun.id
    in
    ignore
      (List.fold_left
         (fun stride k ->
           strides.(k) <- stride;
           stride * dims.(k))
         1 order);
    let s = e.striping in
    Resolved
      {
        dims;
        strides;
        elem_size = e.decl.Ir.Array_decl.elem_size;
        stripe_size = s.Dpm_layout.Striping.stripe_size;
        start_disk = s.Dpm_layout.Striping.start_disk;
        factor = s.Dpm_layout.Striping.stripe_factor;
        ndisks = Plan.ndisks plan;
        base_block = Plan.unit_global_block plan name 0;
        file_bytes = Ir.Array_decl.size_bytes e.decl;
      }
  end

let lower_access plan scope ~write (r : Ir.Reference.t) =
  let target =
    match error_of scope (fun env -> Ir.Reference.eval env r) with
    | Some err -> Raise err
    | None -> (
        match Plan.entry plan r.array with
        | exception Not_found -> Missing
        | e -> resolve plan r.array e (List.length r.indices))
  in
  let subs =
    match target with
    | Resolved _ -> Array.of_list (List.map (total scope) r.indices)
    | Raise _ | Missing | Wrong_rank -> [||]
  in
  { name = r.array; subs; target; write }

type ctx = { plan : Plan.t; cost : Ir.Cost.model; mutable slots : int }

let lower_stmt ctx scope (s : Ir.Stmt.t) =
  let reads = List.map (lower_access ctx.plan scope ~write:false) s.reads in
  let write =
    Option.to_list
      (Option.map (lower_access ctx.plan scope ~write:true) s.write)
  in
  {
    cycles = Ir.Cost.stmt_cycles ctx.cost s;
    accesses = Array.of_list (reads @ write);
  }

(* A loop's iterator lives in the slot of its depth.  As in the
   interpreter, leaving a loop unbinds its iterator for the statements
   that follow, even one that shadowed an outer loop's. *)
let rec lower_loop ctx scope depth (l : Ir.Loop.t) =
  ctx.slots <- max ctx.slots (depth + 1);
  let inner = (l.var, depth) :: List.remove_assoc l.var scope in
  Loop
    {
      slot = depth;
      lo = expr scope l.lo;
      hi = expr scope l.hi;
      step = l.step;
      body = lower_nodes ctx inner (depth + 1) l.body;
    }

and lower_nodes ctx scope depth nodes =
  let rec go scope acc = function
    | [] -> Array.of_list (List.rev acc)
    | Ir.Loop.For l :: rest ->
        let n = lower_loop ctx scope depth l in
        go (List.remove_assoc l.var scope) (n :: acc) rest
    | Ir.Loop.Stmt s :: rest ->
        go scope (Stmt (lower_stmt ctx scope s) :: acc) rest
    | Ir.Loop.Call c :: rest -> go scope (Call c :: acc) rest
  in
  go scope [] nodes

let out_of_range name =
  invalid_arg ("Plan.element_offset: index out of range for " ^ name)

(* --- execution --- *)

let run ?(cost = Ir.Cost.default) ~cache_blocks (p : Ir.Program.t) plan cb =
  let ctx = { plan; cost; slots = 0 } in
  let items = lower_nodes ctx [] 0 p.body in
  let env = Array.make ctx.slots 0 in
  let cache = Lru.create ~capacity:cache_blocks in
  let touch nest a =
    match a.target with
    | Resolved r ->
        let linear = ref 0 in
        for k = 0 to Array.length a.subs - 1 do
          let i = (Array.unsafe_get a.subs k) env in
          if i < 0 || i >= Array.unsafe_get r.dims k then out_of_range a.name;
          linear := !linear + (i * Array.unsafe_get r.strides k)
        done;
        let u = !linear * r.elem_size / r.stripe_size in
        let block = r.base_block + u in
        if not (Lru.touch cache block) then
          cb.on_miss ~nest
            ~disk:((r.start_disk + (u mod r.factor)) mod r.ndisks)
            ~block
            ~bytes:(Int.min r.stripe_size (r.file_bytes - (u * r.stripe_size)))
            ~write:a.write
    | Raise err -> raise err
    | Missing -> raise Not_found
    | Wrong_rank ->
        invalid_arg ("Plan.element_offset: wrong rank for " ^ a.name)
  in
  let rec exec nest = function
    | Stmt s ->
        cb.on_stmt ~nest ~cycles:s.cycles;
        for i = 0 to Array.length s.accesses - 1 do
          touch nest (Array.unsafe_get s.accesses i)
        done
    | Call c -> cb.on_call ~nest c
    | Loop l ->
        let lo = l.lo env and hi = l.hi env in
        let v = ref lo in
        while !v <= hi do
          Array.unsafe_set env l.slot !v;
          cb.on_enter ~nest ~depth:l.slot ~value:!v;
          for i = 0 to Array.length l.body - 1 do
            exec nest (Array.unsafe_get l.body i)
          done;
          v := !v + l.step
        done
  in
  Array.iteri exec items
