(** Pipeline-wide telemetry: the one registry every stage records into
    and every report renders from — per-stage wall times and counters,
    hierarchical trace spans, named histograms and a Chrome
    [trace_event] exporter, under one lock with one {!reset}.

    Every stage of the pipeline (compiler passes, trace generation,
    replay, figure tasks, pool jobs) runs under {!span}, which

    - when {e metrics} are on, accumulates the flat (stage, total,
      calls) view rendered by {!metrics_report} and the run reports'
      [stages] field, and
    - when {e tracing} is on, records a hierarchical span: a unique id,
      the parent span running on the same domain (tracked through
      domain-local state, so concurrent {!Pool} workers each grow their
      own subtree), the domain's track id, wall-clock bounds and lazy
      [key=value] annotations.

    Counters ({!add}, {!count}) record alongside the stages and share
    their switch.  The recorded span forest exports as Chrome
    [trace_event] JSON ([B]/[E] duration events, one [tid] per domain)
    loadable in Perfetto or [chrome://tracing] — the [--trace FILE] flag
    on [dpmsim] and the benchmark harness ends up here.

    Histograms ({!Histo}) register by name.  Hot loops record into a
    local histogram and {!merge_histogram} once per replay (one lock
    acquisition); low-rate call sites use {!observe} directly.  Bucket
    counts merge additively, so the registered quantiles are {e
    identical} whatever the domain count.

    Everything is off by default and zero-cost when off: {!span} costs
    two boolean tests before running its thunk, {!add}, {!observe} and
    {!merge_histogram} one, and simulation {!Result}s are byte-identical
    with telemetry on or off — recording is strictly observational, like
    the [?timeline] sink.  Every recording call is domain-safe. *)

type span = {
  id : int;
  parent : int;  (** id of the enclosing span on this track, or -1. *)
  track : int;  (** Domain id the span ran on. *)
  name : string;
  t0 : float;  (** {!Metrics.now} seconds. *)
  t1 : float;
  args : (string * string) list;
}

type t

val create : unit -> t
(** Fresh collector with metrics, tracing and histograms all off. *)

val global : t
(** Process-wide collector the pipeline records into.  The CLI
    [--metrics], [--trace] and [--histograms] flags switch it on. *)

val set_metrics : t -> bool -> unit
(** Turns the stage and counter tables on or off.  While off, {!span}
    runs its thunk without timing it (unless tracing) and {!add} does
    nothing. *)

val metrics_enabled : t -> bool
val set_tracing : t -> bool -> unit
val tracing : t -> bool
val set_histograms : t -> bool -> unit
val histograms_enabled : t -> bool

val span :
  ?args:(unit -> (string * string) list) -> t -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f ()] under a named span.  Its wall time and
    one call accumulate under stage [name] when {!metrics_enabled}; the
    hierarchical record lands only when {!tracing} is on, in which case
    [args] (evaluated lazily, only then) annotate the Chrome event.
    Nested and concurrent spans under one name accumulate.  Exceptions
    propagate; the span closes either way. *)

val add : t -> string -> int -> unit
(** [add t counter n] bumps [counter] by [n] (no-op unless
    {!metrics_enabled}). *)

val count : t -> string -> unit
(** [count t counter] is [add t counter 1]. *)

val observe : t -> string -> float -> unit
(** Add one observation to the named histogram (no-op unless
    {!histograms_enabled}; takes the collector lock — fine at per-gap or
    per-decision rate, wrong inside the replay's per-request loop). *)

val merge_histogram : t -> string -> Histo.t -> unit
(** Merge a locally accumulated histogram into the named one (no-op
    unless {!histograms_enabled}).  One lock acquisition per call. *)

val stages : t -> (string * float * int) list
(** Every recorded stage as [(name, total seconds, calls)], sorted by
    name — deterministic whatever order domains recorded in. *)

val counters : t -> (string * int) list
(** Every counter as [(name, value)], sorted by name. *)

val counter : t -> string -> int
(** One counter's value (0 if never recorded). *)

val spans : t -> span list
(** Completed spans, ordered by id (= start order). *)

val histograms : t -> (string * Histo.t) list
(** Name-sorted copies of the registered histograms. *)

val reset : t -> unit
(** Drops every stage, counter, span and histogram; keeps the enabled
    flags. *)

(** {1 Rendering} *)

val metrics_report : t -> string
(** Renders the stages (stage, calls, total s, mean ms) and counters as
    text tables, with derived throughput lines for the conventional
    pairs ([sim.requests]/[sim.replay], [trace.events]/[trace.gen]).
    Rows are sorted by name, so two runs of the same workload differ
    only in the timing columns whatever [--domains] was.  Returns [""]
    when nothing was recorded. *)

val histogram_report : ?title:string -> t -> string
(** Count / mean / p50 / p90 / p99 / max per histogram, as a {!Table};
    [""] when nothing was observed. *)

val histograms_json : t -> Json.t
(** The same quantiles as a JSON array, each row with its mergeable
    {!Histo.to_json} buckets — the run reports' [histograms] field. *)

val chrome_json : ?process_name:string -> t -> Json.t
(** The span forest as a Chrome [trace_event] document:
    [{"traceEvents": [...], "displayTimeUnit": "ms"}] with balanced
    [B]/[E] pairs per track (emitted by tree walk, so nesting is correct
    even for zero-width spans), thread-name metadata per track, and
    timestamps in microseconds relative to the earliest span. *)

val write_chrome_trace : ?process_name:string -> t -> out_channel -> unit

val validate_chrome : Json.t -> (unit, string list) result
(** Structural check used by [dpmsim report-check] and the tests: a
    [traceEvents] array exists and is non-empty, every event carries
    [ph]/[pid]/[tid] (and [name]/[ts] for [B]/[E]), and per [(pid, tid)]
    the [B]/[E] events balance like parentheses with matching names. *)
