(** Compiled iteration-space walk: the one pass behind trace generation
    ({!Generate}), reuse-aware access analysis
    ([Dpm_compiler.Access.of_program_cached]) and the timing profile
    ([Dpm_compiler.Estimate.profile]).

    {!run} lowers the program against the plan once, then executes it:

    - loops become slot-indexed iterators over an [int array]
      environment (slot = nesting depth);
    - every subscript and bound is compiled once;
    - every reference is resolved once to its storage-order strides,
      element size, striping, base block and file size;
    - the buffer cache is the int-keyed {!Dpm_cache.Lru}, keyed by
      global block number.

    Executing a statement touches its reads in order, then its write;
    only buffer-cache misses are reported.  The walk allocates nothing
    per access, so the callbacks decide the cost of a pass.

    The event order and every error match the interpreted walker
    {!Dpm_ir.Enumerate} (kept as the test oracle): an unbound iterator
    raises [Invalid_argument "Enumerate: unbound iterator <x>"] and a
    reference to an array missing from the plan raises [Not_found],
    both only when executed; an out-of-range subscript raises
    [Invalid_argument "Plan.element_offset: index out of range for <a>"]. *)

type callbacks = {
  on_enter : nest:int -> depth:int -> value:int -> unit;
      (** Start of every loop iteration; [depth] is 0 for a top-level
          item's outermost loop. *)
  on_stmt : nest:int -> cycles:int -> unit;
      (** Before each statement execution's accesses; [cycles] is
          {!Dpm_ir.Cost.stmt_cycles} of the statement. *)
  on_miss :
    nest:int -> disk:int -> block:int -> bytes:int -> write:bool -> unit;
      (** A buffer-cache miss: the disk, global block and byte size of
          the stripe unit, and whether the reference is the write. *)
  on_call : nest:int -> Dpm_ir.Loop.pm_call -> unit;
      (** Each executed power-management call. *)
}

val run :
  ?cost:Dpm_ir.Cost.model ->
  cache_blocks:int ->
  Dpm_ir.Program.t ->
  Dpm_layout.Plan.t ->
  callbacks ->
  unit
(** Walks every top-level item in order through a fresh cache of
    [cache_blocks] stripe units (0 disables caching).  [cost] (default
    {!Dpm_ir.Cost.default}) prices the statements for [on_stmt]. *)
