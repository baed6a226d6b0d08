(** Block-granularity LRU buffer cache.

    The paper assumes "each array reference causes a disk access unless
    the data is captured in the buffer cache".  The iteration-space walk
    ({!Dpm_trace.Walk}) filters reference events through this cache, so
    only misses become disk requests.  Keys are global block numbers
    ({!Dpm_layout.Plan.unit_global_block}), which map one-to-one to
    [(array, stripe unit)] pairs; a capacity of zero disables caching.

    Implementation: an open-addressing int hash table (linear probing,
    backward-shift deletion) over slot indices, plus a doubly-linked
    recency list threaded through int arrays.  All operations are O(1)
    expected, and {!touch} allocates nothing. *)

type t

val create : capacity:int -> t
(** [capacity] is the number of blocks held; raises [Invalid_argument] if
    negative. *)

val capacity : t -> int
val length : t -> int

val touch : t -> int -> bool
(** [touch t k] touches block [k] and returns whether it was resident (a
    hit, promoted to most recently used).  On a miss [k] is inserted,
    evicting the least recently used block if the cache was full. *)

val access : t -> int -> [ `Hit | `Miss of int option ]
(** {!touch}, also reporting the evicted block: [`Hit] if resident;
    [`Miss evicted] otherwise. *)

val mem : t -> int -> bool
(** Residency test without promoting. *)

val clear : t -> unit

val hits : t -> int
val misses : t -> int
(** Cumulative counters since creation / {!clear}. *)
