(* Shared trace constructors and QCheck generators for the simulator
   test suites (stream, fault, timeline, fastpath).  Everything here is
   deterministic or seeded: the differential suites compare replay
   results byte-for-byte, so the inputs must reproduce exactly. *)

module Request = Dpm_trace.Request
module Trace = Dpm_trace.Trace
module Fault = Dpm_sim.Fault

let kib = Dpm_util.Units.kib

let io ?(think = 0.05) ?(disk = 0) ?(block = 0) ?(bytes = kib 64)
    ?(kind = Request.Read) ?(nest = 0) ?(iter = 0) () =
  Request.Io { think; disk; block; bytes; kind; nest; iter }

(* A small fixed trace exercising every event shape: reads and writes of
   different sizes, all three directives, zero and non-zero think
   times. *)
let sample_events =
  [
    io ~think:0.001 ~disk:0 ~block:4 ();
    io ~think:0.002 ~disk:1 ~block:9 ~kind:Request.Write ~iter:1 ();
    Request.Pm { think = 0.5; directive = Request.Spin_down 2 };
    io ~think:0.0 ~disk:3 ~block:17 ~bytes:512 ~nest:1 ~iter:2 ();
    Request.Pm { think = 0.0; directive = Request.Spin_up 2 };
    io ~think:0.004 ~disk:2 ~block:3 ~bytes:(kib 8) ~kind:Request.Write
      ~nest:1 ~iter:3 ();
    Request.Pm
      { think = 1e-6; directive = Request.Set_rpm { level = 2; disk = 1 } };
    io ~think:0.001 ~disk:0 ~block:5 ~iter:4 ();
  ]

let sample_trace () =
  Trace.make ~tail_think:0.25 ~program:"smp" ~ndisks:4 sample_events

(* [n] reads round-robin over [ndisks], marching through the block
   space. *)
let busy_trace ?(think = 0.05) ?(program = "fault-t") ~n ~ndisks () =
  let events =
    List.init n (fun i -> io ~think ~disk:(i mod ndisks) ~block:i ())
  in
  Trace.make ~tail_think:0.5 ~program ~ndisks events

(* Seeded fault spec used by the differential suites: every fault class
   enabled, plus one whole-disk failure mid-run. *)
let fault_spec =
  Fault.make ~seed:11 ~read_error_rate:0.05 ~bad_unit_rate:0.05
    ~spin_up_failure_rate:0.3
    ~disk_failures:[ (0, 0.5) ]
    ()

let gen_event ndisks =
  QCheck2.Gen.(
    frequency
      [
        ( 8,
          map
            (fun (think, disk, block, big, read, iter) ->
              Request.Io
                {
                  think;
                  disk;
                  block;
                  bytes = (if big then kib 64 else 512);
                  kind = (if read then Request.Read else Request.Write);
                  nest = iter mod 3;
                  iter;
                })
            (tup6
               (float_bound_inclusive 0.02)
               (int_bound (ndisks - 1))
               (int_bound 63) bool bool (int_bound 500)) );
        ( 2,
          map
            (fun (think, disk, which) ->
              let directive =
                match which mod 3 with
                | 0 -> Request.Spin_down disk
                | 1 -> Request.Spin_up disk
                | _ -> Request.Set_rpm { level = which mod 5; disk }
              in
              Request.Pm { think; directive })
            (tup3
               (float_bound_inclusive 1.0)
               (int_bound (ndisks - 1))
               (int_bound 29)) );
      ])

let gen_trace =
  QCheck2.Gen.(
    let ndisks = 4 in
    map
      (fun (events, tail) ->
        Trace.make ~tail_think:tail ~program:"q" ~ndisks events)
      (tup2
         (list_size (int_range 0 120) (gen_event ndisks))
         (float_bound_inclusive 2.0)))

(* --- Heterogeneous fleets and scheduling disciplines --- *)

(* A fleet drawn from the model registry: empty (the legacy homogeneous
   configuration) or 1-4 models assigned round-robin over disk ids. *)
let gen_fleet =
  QCheck2.Gen.(
    let model =
      map
        (fun i -> snd (List.nth Dpm_disk.Specs.all i))
        (int_bound (List.length Dpm_disk.Specs.all - 1))
    in
    map Array.of_list (list_size (int_range 0 4) model))

let gen_sched = QCheck2.Gen.oneofl Dpm_sim.Sched.all

(* A full simulator configuration varying the axes the scheduler and
   fleet layers care about; everything else stays at the default. *)
let gen_config =
  QCheck2.Gen.(
    map
      (fun (fleet, sched, depth) ->
        Dpm_sim.Config.default
        |> Dpm_sim.Config.with_fleet fleet
        |> Dpm_sim.Config.with_sched sched
        |> Dpm_sim.Config.with_queue_depth depth)
      (tup3 gen_fleet gen_sched (int_range 1 48)))

let config_print c =
  Printf.sprintf "fleet=[%s] sched=%s depth=%d"
    (String.concat ","
       (Array.to_list (Array.map Dpm_disk.Specs.name_of c.Dpm_sim.Config.fleet)))
    (Dpm_sim.Config.sched_name c.Dpm_sim.Config.sched)
    c.Dpm_sim.Config.queue_depth

(* --- Random loop nests for the compiled-walk differential suite --- *)

module Ir = Dpm_ir
module Plan = Dpm_layout.Plan
module E = Dpm_ir.Expr

(* A subscript for an extent [d] over the iterators in scope: an affine,
   floor-divided or min/max combination, clamped into [0, d) with
   [Min]/[Max] so the reference is always in range. *)
let gen_subscript scope d =
  QCheck2.Gen.(
    let var = if scope = [] then return (E.Const 0) else map E.var (oneofl scope) in
    let* core =
      frequency
        [
          (2, map E.const (int_range (-1) 6));
          (3, var);
          (3, map2 (fun v k -> E.Add (v, E.Const k)) var (int_range (-2) 3));
          (2, map2 (fun v k -> E.Sub (v, E.Const k)) var (int_range 0 2));
          (2, map2 (fun k v -> E.Mul (k, v)) (int_range 1 3) var);
          (2, map2 (fun v k -> E.Div (v, k)) var (int_range 1 3));
          (1, map2 (fun a b -> E.Add (a, b)) var var);
        ]
    in
    return (E.Max (E.Const 0, E.Min (core, E.Const (d - 1)))))

let gen_reference decls scope =
  QCheck2.Gen.(
    let* (decl : Ir.Array_decl.t) = oneofl decls in
    let+ indices = flatten_l (List.map (gen_subscript scope) decl.dims) in
    Ir.Reference.make decl.name indices)

let gen_stmt decls scope =
  QCheck2.Gen.(
    let* write = opt (gen_reference decls scope) in
    let* reads =
      list_size (int_range (if write = None then 1 else 0) 3) (gen_reference decls scope)
    in
    let+ work = int_range 0 50 in
    Ir.Stmt.make ?write ~work reads)

let gen_call ndisks =
  QCheck2.Gen.(
    let* disk = int_bound (ndisks - 1) in
    oneofl
      [
        Ir.Loop.Spin_down disk;
        Ir.Loop.Spin_up disk;
        Ir.Loop.Set_rpm { level = disk mod 3; disk };
      ])

(* A loop at [depth] (iterator [i<depth>]); bounds may depend on the
   enclosing iterator (triangular and min-clipped nests) and may give a
   zero-trip loop. *)
let rec gen_loop decls ndisks scope depth =
  QCheck2.Gen.(
    let var = Printf.sprintf "i%d" depth in
    let outer = match scope with [] -> None | v :: _ -> Some (E.Var v) in
    let* lo =
      match outer with
      | None -> map E.const (int_range 0 2)
      | Some v -> oneof [ map E.const (int_range 0 2); return (E.Div (v, 2)) ]
    in
    let* hi =
      match outer with
      | None -> map E.const (int_range (-1) 5)
      | Some v ->
          oneof
            [
              map E.const (int_range (-1) 5);
              map (fun k -> E.Min (E.Add (v, E.Const k), E.Const 5)) (int_range 0 2);
            ]
    in
    let* step = int_range 1 2 in
    let scope = var :: scope in
    let node =
      frequency
        ([ (4, map (fun s -> Ir.Loop.Stmt s) (gen_stmt decls scope));
           (1, map (fun c -> Ir.Loop.Call c) (gen_call ndisks)) ]
        @
        if depth < 2 then
          [ (2, map (fun l -> Ir.Loop.For l) (gen_loop decls ndisks scope (depth + 1))) ]
        else [])
    in
    let+ body = list_size (int_range 1 3) node in
    Ir.Loop.for_ var ~step lo hi body)

(* A program of 1-3 top-level items (mostly nests, sometimes a
   constant-subscript statement or a call) over 1-3 row- or
   column-major arrays striped over 1-4 disks, plus a cache size of 0-8
   blocks. *)
let gen_walk_case =
  QCheck2.Gen.(
    let* ndisks = int_range 1 4 in
    let* shapes =
      list_size (int_range 1 3)
        (pair (list_size (int_range 1 3) (int_range 1 5)) (oneofl [ 256; 1024; 4096 ]))
    in
    let decls =
      List.mapi
        (fun i (dims, elem_size) ->
          Ir.Array_decl.make ~name:(Printf.sprintf "A%d" i) ~dims ~elem_size)
        shapes
    in
    let entry decl =
      let* order = oneofl [ Plan.Row_major; Plan.Col_major ] in
      let* start_disk = int_bound (ndisks - 1) in
      let* stripe_factor = int_range 1 ndisks in
      let+ stripe_size = oneofl [ 512; 2048; 8192 ] in
      {
        Plan.decl;
        order;
        striping = Dpm_layout.Striping.make ~start_disk ~stripe_factor ~stripe_size;
      }
    in
    let* entries = flatten_l (List.map entry decls) in
    let item =
      frequency
        [
          (5, map (fun l -> Ir.Loop.For l) (gen_loop decls ndisks [] 0));
          (1, map (fun s -> Ir.Loop.Stmt s) (gen_stmt decls []));
          (1, map (fun c -> Ir.Loop.Call c) (gen_call ndisks));
        ]
    in
    let* body = list_size (int_range 1 3) item in
    let+ cache_blocks = int_range 0 8 in
    ( Ir.Program.make ~name:"rand" ~arrays:decls ~body,
      Plan.make ~ndisks entries,
      cache_blocks ))

let walk_case_print (p, plan, cache_blocks) =
  Format.asprintf "%s@.%a@.cache_blocks=%d" (Ir.Printer.program p) Plan.pp plan
    cache_blocks
