(* Slots [0, cap) hold the resident keys; [prev]/[next] link them into
   the recency list (-1 terminates).  [table] maps a key's hash bucket
   to its slot (-1 = empty), probed linearly. *)
type t = {
  cap : int;
  keys : int array;
  prev : int array;
  next : int array;
  table : int array;
  shift : int;  (* Fibonacci hashing: the top bits of [k * golden]. *)
  mutable size : int;
  mutable head : int;  (* most recently used slot *)
  mutable tail : int;  (* least recently used slot *)
  mutable evicted : int option;  (* written only on an eviction *)
  mutable hit_count : int;
  mutable miss_count : int;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Lru.create: negative capacity";
  (* Table at least twice the capacity, a power of two. *)
  let bits = ref 3 in
  while 1 lsl !bits < 2 * capacity do
    incr bits
  done;
  {
    cap = capacity;
    keys = Array.make capacity 0;
    prev = Array.make capacity (-1);
    next = Array.make capacity (-1);
    table = Array.make (1 lsl !bits) (-1);
    shift = Sys.int_size - !bits;
    size = 0;
    head = -1;
    tail = -1;
    evicted = None;
    hit_count = 0;
    miss_count = 0;
  }

let capacity t = t.cap
let length t = t.size
let mask t = Array.length t.table - 1
let bucket t k = (k * 0x2545F4914F6CDD1D) lsr t.shift

(* Table index holding [k]'s slot, or the empty index where it would
   go (as [-1 - index]).  Top-level recursion: a local closure would
   allocate on every lookup. *)
let rec probe t k i =
  let s = Array.unsafe_get t.table i in
  if s < 0 then -1 - i
  else if Array.unsafe_get t.keys s = k then i
  else probe t k ((i + 1) land mask t)

let find t k = probe t k (bucket t k)

let mem t k = find t k >= 0

(* Backward-shift deletion: refill the hole at [i] with any later entry
   of the probe run whose home bucket does not lie in (i, j]. *)
let rec shift t i j =
  let j = (j + 1) land mask t in
  let s = t.table.(j) in
  if s >= 0 then begin
    let h = bucket t t.keys.(s) in
    let stays = if i <= j then i < h && h <= j else i < h || h <= j in
    if stays then shift t i j
    else begin
      t.table.(i) <- s;
      t.table.(j) <- -1;
      shift t j j
    end
  end

let remove_at t i =
  t.table.(i) <- -1;
  shift t i i

let unlink t s =
  let p = t.prev.(s) and n = t.next.(s) in
  if p >= 0 then t.next.(p) <- n else t.head <- n;
  if n >= 0 then t.prev.(n) <- p else t.tail <- p

let push_front t s =
  t.prev.(s) <- -1;
  t.next.(s) <- t.head;
  if t.head >= 0 then t.prev.(t.head) <- s else t.tail <- s;
  t.head <- s

let touch t k =
  let i = find t k in
  if i >= 0 then begin
    t.hit_count <- t.hit_count + 1;
    let s = t.table.(i) in
    if s <> t.head then begin
      unlink t s;
      push_front t s
    end;
    true
  end
  else begin
    t.miss_count <- t.miss_count + 1;
    if t.cap > 0 then begin
      let s =
        if t.size < t.cap then begin
          t.size <- t.size + 1;
          t.size - 1
        end
        else begin
          let s = t.tail in
          unlink t s;
          t.evicted <- Some t.keys.(s);
          remove_at t (find t t.keys.(s));
          s
        end
      in
      t.keys.(s) <- k;
      push_front t s;
      (* The eviction may have shifted entries: probe afresh. *)
      t.table.(-1 - find t k) <- s
    end;
    false
  end

let access t k =
  t.evicted <- None;
  if touch t k then `Hit else `Miss t.evicted

let clear t =
  Array.fill t.table 0 (Array.length t.table) (-1);
  t.size <- 0;
  t.head <- -1;
  t.tail <- -1;
  t.hit_count <- 0;
  t.miss_count <- 0

let hits t = t.hit_count
let misses t = t.miss_count
