(* The volatile redo log of §4.7: the addresses and ranges modified by the
   current transaction — never the data itself, and never persisted.  At
   commit, only these ranges are copied from main to back.

   Word-sized entries (the common case) are deduplicated so that a loop
   storing to the same field logs one range, not thousands; ranges from
   blob stores are appended as-is.

   The dedup structure is an open-addressed table in a flat [int array]
   — no boxing, no bucket lists, and no allocation on the per-store fast
   path (a boxed [Hashtbl] allocated a bucket cell on every insert,
   which showed up directly in the per-store cost).  Slots hold
   [offset + 1] so that 0 can mean "empty" without special-casing
   offset 0.

   At commit, {!coalesce} turns the entries into the replication plan:
   the maximal intervals of their union, sorted.  That list is canonical
   (the connected components of a set of bytes are unique), so it does
   not depend on the order the entries were added in or on how they are
   sorted, and neither do the copies, write-backs and media bytes the
   engine derives from it. *)

exception Overflow of { capacity : int }

(* Large enough that only a deliberately pathological transaction hits
   it; small enough that a runaway store loop surfaces as a typed,
   abortable error instead of unbounded DRAM growth. *)
let default_capacity = 1 lsl 20

let initial_table_size = 128 (* power of two *)

type t = {
  mutable offs : int array;
  mutable lens : int array;
  mutable n : int;
  mutable capacity : int;   (* max entries before {!Overflow} *)
  (* open-addressed word-dedup table: 0 = empty slot *)
  mutable words : int array;
  mutable word_count : int;
}

let create ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Redo_log.create: capacity < 1";
  { offs = Array.make 64 0; lens = Array.make 64 0; n = 0; capacity;
    words = Array.make initial_table_size 0; word_count = 0 }

let set_capacity t c =
  if c < 1 then invalid_arg "Redo_log.set_capacity: capacity < 1";
  t.capacity <- c

let clear t =
  t.n <- 0;
  if t.word_count > 0 then begin
    (* a pathological transaction can balloon the table; don't make every
       later small transaction pay an O(high-water) fill to reset it *)
    if Array.length t.words > 8 * initial_table_size
       && 8 * t.word_count < Array.length t.words
    then t.words <- Array.make initial_table_size 0
    else Array.fill t.words 0 (Array.length t.words) 0;
    t.word_count <- 0
  end

(* Multiplicative hash (splitmix-style odd constant): word offsets are
   8-aligned and clustered, so the low bits alone would collide
   pathologically. *)
let hash_off off =
  let h = off * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land max_int

(* The probe loops are top-level recursions, not local closures: a local
   [probe] capturing the table would allocate on every store. *)
let rec insert_probe words mask key i =
  let v = Array.unsafe_get words i in
  if v = 0 then Array.unsafe_set words i key
  else if v <> key then insert_probe words mask key ((i + 1) land mask)

let word_insert words mask key =
  insert_probe words mask key (hash_off key land mask)

let grow_words t =
  let old = t.words in
  let size = 2 * Array.length old in
  let words = Array.make size 0 in
  let mask = size - 1 in
  for i = 0 to Array.length old - 1 do
    let v = Array.unsafe_get old i in
    if v <> 0 then word_insert words mask v
  done;
  t.words <- words

(* Membership test + insert in one probe sequence; returns [true] iff
   [off] was newly inserted.  Load factor kept below 1/2. *)
let rec add_probe t words mask key i =
  let v = Array.unsafe_get words i in
  if v = 0 then begin
    Array.unsafe_set words i key;
    t.word_count <- t.word_count + 1;
    true
  end
  else if v = key then false
  else add_probe t words mask key ((i + 1) land mask)

let word_add t off =
  if 2 * (t.word_count + 1) > Array.length t.words then grow_words t;
  let key = off + 1 in
  let words = t.words in
  let mask = Array.length words - 1 in
  add_probe t words mask key (hash_off key land mask)

let append t off len =
  (* raised before anything is recorded: the log still covers exactly the
     stores that were applied, so an abort can roll them back *)
  if t.n >= t.capacity then raise (Overflow { capacity = t.capacity });
  if t.n = Array.length t.offs then begin
    let cap = 2 * t.n in
    let offs = Array.make cap 0 and lens = Array.make cap 0 in
    Array.blit t.offs 0 offs 0 t.n;
    Array.blit t.lens 0 lens 0 t.n;
    t.offs <- offs;
    t.lens <- lens
  end;
  t.offs.(t.n) <- off;
  t.lens.(t.n) <- len;
  t.n <- t.n + 1

let add t ~off ~len =
  if len = 8 then begin
    if word_add t off then append t off len
  end
  else if len > 0 then append t off len

let iter t f =
  for i = 0 to t.n - 1 do
    f ~off:t.offs.(i) ~len:t.lens.(i)
  done

(* ---- coalescing ----

   Sorting runs in place on the two parallel arrays, by offset, with the
   comparison inlined on [int]s: no index permutation, no copies, no
   comparison closure, so a commit allocates nothing here and pays a few
   nanoseconds per entry instead of a closure call per comparison.  Runs
   of at most [insertion_cutoff] entries take an insertion sort; longer
   ones a median-of-three quicksort that recurses into the smaller part
   and loops on the larger, so its stack stays O(log n).  An already
   ascending log needs no separate check: the insertion sort is linear on
   it, and the median of three splits it evenly.  The sort need not be
   stable, nor order equal offsets in any way: the intervals are
   canonical (see the top of the file). *)

let insertion_cutoff = 32

let swap (offs : int array) (lens : int array) i j =
  let o = Array.unsafe_get offs i and l = Array.unsafe_get lens i in
  Array.unsafe_set offs i (Array.unsafe_get offs j);
  Array.unsafe_set lens i (Array.unsafe_get lens j);
  Array.unsafe_set offs j o;
  Array.unsafe_set lens j l

(* Sort [offs.(lo..hi)] (inclusive) by offset, moving [lens] alongside. *)
let insertion_sort (offs : int array) (lens : int array) lo hi =
  for i = lo + 1 to hi do
    let o = Array.unsafe_get offs i and l = Array.unsafe_get lens i in
    let j = ref (i - 1) in
    while !j >= lo && Array.unsafe_get offs !j > o do
      Array.unsafe_set offs (!j + 1) (Array.unsafe_get offs !j);
      Array.unsafe_set lens (!j + 1) (Array.unsafe_get lens !j);
      decr j
    done;
    Array.unsafe_set offs (!j + 1) o;
    Array.unsafe_set lens (!j + 1) l
  done

let rec quicksort (offs : int array) (lens : int array) lo hi =
  if hi - lo < insertion_cutoff then insertion_sort offs lens lo hi
  else begin
    (* median of three into [mid]: sorted and reverse-sorted runs split
       evenly *)
    let mid = lo + ((hi - lo) lsr 1) in
    if Array.unsafe_get offs mid < Array.unsafe_get offs lo then
      swap offs lens mid lo;
    if Array.unsafe_get offs hi < Array.unsafe_get offs lo then
      swap offs lens hi lo;
    if Array.unsafe_get offs hi < Array.unsafe_get offs mid then
      swap offs lens hi mid;
    let pivot = Array.unsafe_get offs mid in
    (* Hoare partition: stops on keys equal to the pivot from both sides,
       so a run of duplicate offsets splits in the middle *)
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while Array.unsafe_get offs !i < pivot do incr i done;
      while Array.unsafe_get offs !j > pivot do decr j done;
      if !i <= !j then begin
        swap offs lens !i !j;
        incr i;
        decr j
      end
    done;
    if !j - lo < hi - !i then begin
      quicksort offs lens lo !j;
      quicksort offs lens !i hi
    end
    else begin
      quicksort offs lens !i hi;
      quicksort offs lens lo !j
    end
  end

(* Merge the logged ranges into maximal intervals: sort by offset, then
   fuse every overlapping or adjacent pair in one pass over the sorted
   arrays, writing the intervals back from the front ([m <= i], so each
   entry is read before its slot is reused).  Replication afterwards
   does one copy + one pwb_range per interval instead of per entry,
   which is where repeated neighbouring stores (allocator metadata,
   struct fields) stop costing one write-back each.

   Entries already appended stay deduplicated in [words]; an interval
   covering a word is at least as large as its original range, so later
   appends of the same word remain redundant. *)
let coalesce t =
  let n = t.n in
  if n > 1 then begin
    let offs = t.offs and lens = t.lens in
    quicksort offs lens 0 (n - 1);
    let m = ref 1 in
    let cur_off = ref (Array.unsafe_get offs 0) in
    let cur_end = ref (!cur_off + Array.unsafe_get lens 0) in
    for i = 1 to n - 1 do
      let off = Array.unsafe_get offs i in
      let e = off + Array.unsafe_get lens i in
      if off <= !cur_end then begin
        if e > !cur_end then cur_end := e
      end
      else begin
        Array.unsafe_set lens (!m - 1) (!cur_end - !cur_off);
        Array.unsafe_set offs !m off;
        cur_off := off;
        cur_end := e;
        incr m
      end
    done;
    Array.unsafe_set lens (!m - 1) (!cur_end - !cur_off);
    t.n <- !m
  end

let entries t = t.n

let is_empty t = t.n = 0

let bytes t =
  let total = ref 0 in
  for i = 0 to t.n - 1 do
    total := !total + t.lens.(i)
  done;
  !total
