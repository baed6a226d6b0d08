(* The compiled iteration-space walk (Dpm_trace.Walk) under Generate,
   Access and Estimate versus the interpreted Enumerate walks it
   replaced (test/oracle): equal results on random loop nests — floats
   bit for bit — and the same errors, raised at the same point. *)

module Ir = Dpm_ir
module E = Ir.Expr
module Plan = Dpm_layout.Plan
module Generate = Dpm_trace.Generate
module Trace = Dpm_trace.Trace
module Access = Dpm_compiler.Access
module Estimate = Dpm_compiler.Estimate
module Oracle = Walk_oracle

let specs = Dpm_disk.Specs.ultrastar_36z15
let config cache_blocks = { Generate.default_config with cache_blocks }

let generate cache_blocks p plan =
  let t = Generate.run ~config:(config cache_blocks) p plan in
  (Array.to_list (Trace.events t), Trace.tail_think t)

let access cache_blocks p plan = Access.of_program_cached ~cache_blocks p plan
let profile cache_blocks p plan = Estimate.profile ~cache_blocks ~specs p plan

let oracle_generate cache_blocks p plan =
  Oracle.generate ~config:(config cache_blocks) p plan

let oracle_access cache_blocks p plan = Oracle.access_cached ~cache_blocks p plan

let oracle_profile cache_blocks p plan =
  Oracle.profile ~cost:Ir.Cost.default ~cache_blocks ~specs p plan

let differential name ~count walk oracle =
  QCheck2.Test.make ~count ~name ~print:Gen.walk_case_print Gen.gen_walk_case
    (fun (p, plan, cache_blocks) ->
      walk cache_blocks p plan = oracle cache_blocks p plan)

(* --- error parity --- *)

let outcome f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

(* Every walk and its oracle on [p]: all six outcomes, pairwise equal,
   and the walk's outcomes returned. *)
let parity p plan =
  let pair walk oracle =
    let w = outcome (fun () -> walk 4 p plan)
    and o = outcome (fun () -> oracle 4 p plan) in
    Alcotest.(check bool) "walk = oracle" true (w = o);
    Result.map (fun _ -> ()) w
  in
  [
    pair generate oracle_generate;
    pair access oracle_access;
    pair profile oracle_profile;
  ]

let decl = Ir.Array_decl.make ~name:"A" ~dims:[ 4; 3 ] ~elem_size:4096

(* Built without [Program.make], which would reject these bodies. *)
let raw body = { Ir.Program.name = "err"; arrays = [ decl ]; body }
let plan_of p = Plan.uniform ~ndisks:8 p
let read idx = Ir.Loop.Stmt (Ir.Stmt.make [ Ir.Reference.make "A" idx ])

let all_ok outcomes =
  List.iter
    (fun o -> Alcotest.(check (result unit string)) "no error" (Ok ()) o)
    outcomes

let all_raise msg outcomes =
  List.iter
    (fun o -> Alcotest.(check (result unit string)) "error" (Error msg) o)
    outcomes

let test_unbound_in_zero_trip () =
  let p =
    raw
      [
        Ir.Loop.For
          (Ir.Loop.for_ "i" (E.Const 0) (E.Const 3)
             [ read [ E.Var "i"; E.Const 0 ] ]);
        Ir.Loop.For
          (Ir.Loop.for_ "j" (E.Const 1) (E.Const 0)
             [ read [ E.Var "zz"; E.Var "j" ] ]);
      ]
  in
  all_ok (parity p (plan_of p))

let test_out_of_range () =
  let p =
    raw
      [
        Ir.Loop.For
          (Ir.Loop.for_ "i" (E.Const 0) (E.Const 3)
             [ read [ E.Add (E.Var "i", E.Const 1); E.Const 2 ] ]);
      ]
  in
  all_raise
    (Printexc.to_string
       (Invalid_argument "Plan.element_offset: index out of range for A"))
    (parity p (plan_of p))

let test_unbound_executed () =
  let p =
    raw
      [
        Ir.Loop.For
          (Ir.Loop.for_ "i" (E.Const 0) (E.Const 1)
             [ read [ E.Var "i"; E.Min (E.Var "yy", E.Div (E.Var "zz", 2)) ] ]);
      ]
  in
  List.iter
    (fun o -> Alcotest.(check bool) "raises" true (Result.is_error o))
    (parity p (plan_of p))

(* As in the interpreter, leaving an inner loop that shadows [i] unbinds
   [i] for the statements after it. *)
let test_shadowed_iterator () =
  let p =
    raw
      [
        Ir.Loop.For
          (Ir.Loop.for_ "i" (E.Const 0) (E.Const 1)
             [
               Ir.Loop.For
                 (Ir.Loop.for_ "i" (E.Const 0) (E.Const 2)
                    [ read [ E.Var "i"; E.Const 0 ] ]);
               read [ E.Var "i"; E.Const 1 ];
             ]);
      ]
  in
  all_raise
    (Printexc.to_string (Invalid_argument "Enumerate: unbound iterator i"))
    (parity p (plan_of p))

let test_missing_array () =
  let p =
    raw
      [
        Ir.Loop.For
          (Ir.Loop.for_ "i" (E.Const 0) (E.Const 1) [ read [ E.Var "i"; E.Const 0 ] ]);
      ]
  in
  all_raise (Printexc.to_string Not_found) (parity p (Plan.make ~ndisks:2 []))

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "trace.walk",
      [
        q (differential "Generate = Enumerate oracle" ~count:300 generate oracle_generate);
        q (differential "Access = Enumerate oracle" ~count:300 access oracle_access);
        q (differential "Estimate = Enumerate oracle" ~count:300 profile oracle_profile);
        Alcotest.test_case "unbound iterator in a zero-trip loop" `Quick
          test_unbound_in_zero_trip;
        Alcotest.test_case "out-of-range subscript" `Quick test_out_of_range;
        Alcotest.test_case "unbound iterator when executed" `Quick
          test_unbound_executed;
        Alcotest.test_case "shadowed iterator unbound after its loop" `Quick
          test_shadowed_iterator;
        Alcotest.test_case "array missing from the plan" `Quick test_missing_array;
      ] );
  ]
