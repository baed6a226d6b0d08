type config = { cost : Dpm_ir.Cost.model; cache_blocks : int }

let default_config = { cost = Dpm_ir.Cost.default; cache_blocks = 1024 }

(* The trace is a fold over the compiled walk's callbacks,
   parameterized over the event sink so the same code (same LRU cache,
   same cost model, same emission order) backs both the materializing
   [generate] and the chunked [stream].  Returns the tail think time
   left pending after the last event. *)
let walk ~config p plan ~emit =
  let pending_cycles = ref 0 in
  let current_iter = ref 0 in
  let flush_think () =
    let t = Dpm_ir.Cost.seconds config.cost !pending_cycles in
    pending_cycles := 0;
    t
  in
  Walk.run ~cost:config.cost ~cache_blocks:config.cache_blocks p plan
    {
      on_enter =
        (fun ~nest:_ ~depth ~value ->
          if depth = 0 then current_iter := value;
          pending_cycles := !pending_cycles + config.cost.loop_overhead);
      on_stmt =
        (fun ~nest:_ ~cycles -> pending_cycles := !pending_cycles + cycles);
      on_miss =
        (fun ~nest ~disk ~block ~bytes ~write ->
          emit
            (Request.Io
               {
                 think = flush_think ();
                 disk;
                 block;
                 bytes;
                 kind = (if write then Request.Write else Request.Read);
                 nest;
                 iter = !current_iter;
               }));
      on_call =
        (fun ~nest:_ call ->
          let directive =
            match call with
            | Dpm_ir.Loop.Spin_down d -> Request.Spin_down d
            | Dpm_ir.Loop.Spin_up d -> Request.Spin_up d
            | Dpm_ir.Loop.Set_rpm { level; disk } ->
                Request.Set_rpm { level; disk }
          in
          emit (Request.Pm { think = flush_think (); directive }));
    };
  flush_think ()

let generate ~config (p : Dpm_ir.Program.t) plan =
  let events = ref [] in
  let tail_think = walk ~config p plan ~emit:(fun e -> events := e :: !events) in
  Trace.make ~tail_think ~program:p.Dpm_ir.Program.name
    ~ndisks:(Dpm_layout.Plan.ndisks plan)
    (List.rev !events)

let run ?(config = default_config) p plan =
  let trace =
    Dpm_util.Telemetry.span
      ~args:(fun () -> [ ("program", p.Dpm_ir.Program.name) ])
      Dpm_util.Telemetry.global "trace.gen"
      (fun () -> generate ~config p plan)
  in
  Dpm_util.Telemetry.(add global) "trace.events" (Trace.event_count trace);
  trace

(* Re-runs the walk with a max-tracking sink: the exact block-address
   space ([max block + 1]) a materialized run of the same program would
   have, without retaining any events.  Forced only by fault-injected
   streaming replays. *)
let max_block ?(config = default_config) p plan =
  let acc = ref 0 in
  let (_ : float) =
    walk ~config p plan ~emit:(function
      | Request.Io io -> acc := max !acc (io.Request.block + 1)
      | Request.Pm _ -> ())
  in
  !acc

let stream ?(config = default_config) ?batch p plan =
  (* No span here: the walk runs interleaved with the consumer's replay,
     so its wall time is not a meaningful stage on its own.  The event
     count is still recorded, once, when the producer finishes. *)
  let count = ref 0 in
  Trace.Stream.of_push ?batch
    ~nblocks:(lazy (max_block ~config p plan))
    ~program:p.Dpm_ir.Program.name
    ~ndisks:(Dpm_layout.Plan.ndisks plan)
    (fun ~emit ->
      let tail =
        walk ~config p plan ~emit:(fun e ->
            incr count;
            emit e)
      in
      Dpm_util.Telemetry.(add global) "trace.events" !count;
      tail)

let request_count ?config p plan = Trace.io_count (run ?config p plan)
