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
   offset 0. *)

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

let word_insert words mask key =
  let rec probe i =
    let v = Array.unsafe_get words i in
    if v = 0 then Array.unsafe_set words i key
    else if v <> key then probe ((i + 1) land mask)
  in
  probe (hash_off key land mask)

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
let word_add t off =
  if 2 * (t.word_count + 1) > Array.length t.words then grow_words t;
  let key = off + 1 in
  let words = t.words in
  let mask = Array.length words - 1 in
  let rec probe i =
    let v = Array.unsafe_get words i in
    if v = 0 then begin
      Array.unsafe_set words i key;
      t.word_count <- t.word_count + 1;
      true
    end
    else if v = key then false
    else probe ((i + 1) land mask)
  in
  probe (hash_off key land mask)

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

(* Merge the logged ranges into maximal intervals: sort by offset, then
   fuse every overlapping or adjacent pair.  Replication afterwards does
   one copy + one pwb_range per interval instead of per entry, which is
   where repeated neighbouring stores (allocator metadata, struct fields)
   stop costing one write-back each.

   Entries already appended stay deduplicated in [words]; an interval
   covering a word is at least as large as its original range, so later
   appends of the same word remain redundant. *)
let coalesce t =
  if t.n > 1 then begin
    let order = Array.init t.n (fun i -> i) in
    Array.sort (fun a b -> compare t.offs.(a) t.offs.(b)) order;
    let offs = Array.map (fun i -> t.offs.(i)) order in
    let lens = Array.map (fun i -> t.lens.(i)) order in
    let m = ref 0 in
    for i = 0 to t.n - 1 do
      let off = offs.(i) and len = lens.(i) in
      if !m > 0 && off <= t.offs.(!m - 1) + t.lens.(!m - 1) then begin
        let cur_end = t.offs.(!m - 1) + t.lens.(!m - 1) in
        if off + len > cur_end then
          t.lens.(!m - 1) <- off + len - t.offs.(!m - 1)
      end
      else begin
        t.offs.(!m) <- off;
        t.lens.(!m) <- len;
        incr m
      end
    done;
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
