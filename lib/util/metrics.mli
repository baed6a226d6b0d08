(** The monotonic clock every timer in the pipeline reads (the stage
    and span records of {!Telemetry}, the benchmark harnesses). *)

val now : unit -> float
(** Monotonic time in seconds from an arbitrary origin, suitable only
    for differences. *)
