(* Sequential persistent-memory allocator, in the style of Doug Lea's
   malloc (boundary tags + segregated free lists), §4.4 of the paper.

   The allocator is a functor over an abstract word memory [MEM].  Every
   metadata access goes through [MEM.load]/[MEM.store]; when instantiated
   with a PTM's interposed store (log + pwb), the allocator metadata becomes
   part of the transaction and is rolled back on a crash exactly like user
   data — the property that lets Romulus use *any* sequential allocator.

   Heap layout (all offsets are absolute byte offsets into the region):

     base+0   magic
     base+8   top          first never-allocated byte (bump frontier)
     base+16  limit        end of the arena
     base+24  frontier_prev_inuse   in-use bit of the chunk just below top
     base+32  mask[2]      non-empty-bin mask: bin [i] is bit [i land 31]
                           of word [i lsr 5] (32 bins per word, like the
                           bitmap below, so indexing stays a shift)
     base+48  bins[NBINS]  heads of segregated free lists (0 = empty)
     base+meta_bytes
              chunk-start bitmap: one bit per 16-byte granule of the chunk
              area, 32 granules per word (bit [g land 31] of word
              [g lsr 5]), so indexing stays a shift on 63-bit ints
     ...      data chunks, 16-byte aligned

   The bitmap sits below the first chunk, hence below [top]: every copy a
   PTM makes of the used span (redo ranges, twin replication, abort
   restore, recovery, scrub) covers it with no special case.

   Chunk layout: a chunk of [size] bytes (size includes the 8-byte header,
   and is a multiple of 16) starts at [c - 8] where [c] is the payload
   offset handed to the user.

     c-8   header: size lor (inuse << 0) lor (prev_inuse << 1)
     c     payload ... (free chunks: fd at c, bk-address at c+8,
                        footer (= size) at c-8+size-8)

   [bk] stores the *address of the predecessor's fd field* (the classic
   pseudo-chunk trick), so unlinking from the head of a bin and from the
   middle of a list is the same code path.

   Invariants (checked by [check]):
   - chunks tile [data_start, top) exactly;
   - no two adjacent free chunks (always coalesced), and no free chunk
     adjacent to top (merged into top);
   - next chunk's prev_inuse bit mirrors this chunk's inuse bit;
   - the free chunks found by walking the heap are exactly the members of
     the bins, each in the bin its size maps to;
   - a bitmap bit is set iff a chunk (free or in use) starts at that
     granule below top.  Maintained by [alloc_from_top] and [split] (set),
     and by coalescing and the top merge (clear), so [free] validates its
     argument in O(1);
   - a non-empty bin has its mask bit set.  The converse need not hold: a
     set bit over an empty bin is *stale*.  [insert_into_bin] sets the bit
     when it fills an empty bin; [unlink] leaves the mask alone; an
     [alloc] that falls through to the frontier clears the stale bits its
     search met.  So [alloc] finds its first candidate bin with one mask
     load instead of loading every head up to the last bin, and a bin that
     empties and refills inside one transaction costs no mask store.

   Every mask access is an ordinary [MEM] access inside the enclosing
   transaction, like the bitmap: crash recovery and aborts roll it back
   with the bins it describes, and no volatile state survives an abort. *)

module type MEM = sig
  type t

  val load : t -> int -> int
  val store : t -> int -> int -> unit
end

exception Out_of_memory of { requested : int; available : int }

exception Corrupt of string

exception Invalid_free of { offset : int; reason : string }

(* Failpoint sites: allocator metadata is mid-surgery at these points —
   a crash must roll the half-linked chunks back with the transaction.
   Both are raise-capable: an exception here (rather than a power
   failure) models user-visible allocator faults, and the enclosing
   transaction must abort cleanly around the half-done surgery. *)
let fp_alloc_split = Fault.site ~can_raise:true "palloc.alloc.split"
let fp_free_unlinked = Fault.site ~can_raise:true "palloc.free.unlinked"

(* "PALM".  The formats before it are refused by [attach] as a bad magic
   rather than misread: "PALL" (before the chunk-start bitmap) kept its
   first chunks where the bitmap now sits, and "PALB" (before the bin
   mask) kept its bins where the mask now sits. *)
let magic = 0x50414C4D

let nbins = 64
let mask_words = nbins / 32
let min_chunk = 32
let small_max = 512

(* metadata field offsets relative to [base] *)
let o_magic = 0
let o_top = 8
let o_limit = 16
let o_frontier_prev = 24
let o_mask = 32
let o_bins = o_mask + (8 * mask_words)

let meta_bytes = o_bins + (8 * nbins)

let top_offset = o_top
let mask_offset = o_mask

let round16 n = (n + 15) land lnot 15

let bin_index size =
  if size <= small_max then (size - min_chunk) / 16
  else begin
    (* large bins: one per power of two above [small_max] *)
    let small_bins = (small_max - min_chunk) / 16 in
    let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1) in
    let j = log2 (size - 1) 0 - 8 in
    min (nbins - 1) (small_bins + j)
  end

let chunk_size nbytes = max min_chunk (round16 (nbytes + 8))

(* The mask bits of bins [lo] and up within one 32-bin word; [lo] may
   lie below or above the word. *)
let bins_from lo =
  if lo <= 0 then 0xFFFF_FFFF else (0xFFFF_FFFF lsl lo) land 0xFFFF_FFFF

(* Index of the lowest set bit of [x] (nonzero), plus [i]. *)
let rec lowest_bit x i =
  if x land 0xFF = 0 then lowest_bit (x lsr 8) (i + 8)
  else if x land 1 = 0 then lowest_bit (x lsr 1) (i + 1)
  else i

(* Bitmap words covering an arena of [size] bytes: one bit per 16-byte
   granule, 32 granules per word (a slight over-count: the metadata and
   the bitmap itself hold no chunks). *)
let bitmap_words ~size = ((size lsr 4) + 31) lsr 5

(* payload offset of the first chunk; its header sits 8 bytes below, at
   the initial bump frontier *)
let data_start_of ~base ~size =
  round16 (base + meta_bytes + (8 * bitmap_words ~size)) + 8

module Make (M : MEM) = struct
  (* [limit] and the two layout offsets are fixed at format time *)
  type t = { mem : M.t; base : int; limit : int; bitmap : int; ds : int }

  (* ---- field helpers ---- *)

  let top t = M.load t.mem (t.base + o_top)
  let set_top t v = M.store t.mem (t.base + o_top) v
  let frontier_prev t = M.load t.mem (t.base + o_frontier_prev)
  let set_frontier_prev t v = M.store t.mem (t.base + o_frontier_prev) v
  let bin_addr t i = t.base + o_bins + (8 * i)
  let mask_addr t k = t.base + o_mask + (8 * k)

  let header c = c - 8
  let hdr_size h = h land lnot 15
  let hdr_inuse h = h land 1 <> 0
  let hdr_prev_inuse h = h land 2 <> 0

  let read_header t c = M.load t.mem (header c)

  let write_header t c ~size ~inuse ~prev_inuse =
    let h =
      size lor (if inuse then 1 else 0) lor (if prev_inuse then 2 else 0)
    in
    M.store t.mem (header c) h

  let write_footer t c ~size = M.store t.mem (header c + size - 8) size

  (* next chunk's payload offset, or 0 when this chunk touches the
     frontier [tp] *)
  let next_chunk c ~size ~tp =
    let n = header c + size + 8 in
    if n - 8 >= tp then 0 else n

  let set_prev_inuse t c v =
    let h = read_header t c in
    let h = if v then h lor 2 else h land lnot 2 in
    M.store t.mem (header c) h

  (* ---- free-list linking ---- *)

  let insert_into_bin t c ~size =
    let i = bin_index size in
    let slot = bin_addr t i in
    let old = M.load t.mem slot in
    M.store t.mem c old;           (* fd *)
    M.store t.mem (c + 8) slot;    (* bk = address of predecessor's fd *)
    M.store t.mem slot c;
    if old <> 0 then M.store t.mem (old + 8) c
    else begin
      (* the bin was empty, so its bit may be clear (or stale, then set) *)
      let a = mask_addr t (i lsr 5) and m = 1 lsl (i land 31) in
      let w = M.load t.mem a in
      if w land m = 0 then M.store t.mem a (w lor m)
    end

  let unlink t c =
    let fd = M.load t.mem c in
    let bk = M.load t.mem (c + 8) in
    M.store t.mem bk fd;
    if fd <> 0 then M.store t.mem (fd + 8) bk

  (* ---- chunk-start bitmap ---- *)

  (* The bit of chunk [c] is [start_bit c] of the word at [start_word t c]
     (two functions, not a pair: a tuple would be allocated per call). *)
  let start_word t c = t.bitmap + ((((c - t.ds) lsr 4) lsr 5) lsl 3)
  let start_bit t c = 1 lsl (((c - t.ds) lsr 4) land 31)

  let is_chunk_start t c = M.load t.mem (start_word t c) land start_bit t c <> 0

  (* Both store only when the word changes: under an interposing PTM a
     redundant store would still cost a redo range and a write-back.  At
     every call site the invariant says the bit flips, so each call is
     one load and one store. *)
  let mark_start t c =
    let a = start_word t c and m = start_bit t c in
    let w = M.load t.mem a in
    if w land m = 0 then M.store t.mem a (w lor m)

  let unmark_start t c =
    let a = start_word t c and m = start_bit t c in
    let w = M.load t.mem a in
    if w land m <> 0 then M.store t.mem a (w land lnot m)

  (* ---- initialization ---- *)

  let make mem ~base ~size =
    { mem; base; limit = base + size; bitmap = base + meta_bytes;
      ds = data_start_of ~base ~size }

  let init mem ~base ~size =
    if base <= 0 then invalid_arg "Palloc.init: base must be positive";
    let t = make mem ~base ~size in
    if t.ds + min_chunk > t.limit then
      invalid_arg "Palloc.init: arena too small";
    M.store mem (base + o_magic) magic;
    set_top t (t.ds - 8);
    M.store mem (base + o_limit) t.limit;
    set_frontier_prev t 1;
    for k = 0 to mask_words - 1 do
      M.store mem (mask_addr t k) 0
    done;
    for i = 0 to nbins - 1 do
      M.store mem (bin_addr t i) 0
    done;
    (* the bitmap must start clear; fresh media already is, so only a
       re-format over an old arena stores anything *)
    for i = 0 to bitmap_words ~size - 1 do
      let a = t.bitmap + (8 * i) in
      if M.load mem a <> 0 then M.store mem a 0
    done;
    t

  let attach mem ~base =
    if M.load mem (base + o_magic) <> magic then
      raise (Corrupt "Palloc.attach: bad magic");
    let size = M.load mem (base + o_limit) - base in
    let t = make mem ~base ~size in
    if size <= 0 || t.ds + min_chunk > t.limit then
      raise (Corrupt (Printf.sprintf "Palloc.attach: bad limit %d" t.limit));
    t

  (* ---- allocation ---- *)

  (* Split [c] (free, unlinked, of [size] bytes) so that only [need] bytes
     remain allocated; the remainder goes back to a bin. *)
  let split t c ~size ~need ~prev_inuse =
    if size - need >= min_chunk then begin
      let rest = header c + need + 8 in
      let rest_size = size - need in
      write_header t rest ~size:rest_size ~inuse:false ~prev_inuse:true;
      write_footer t rest ~size:rest_size;
      mark_start t rest;
      insert_into_bin t rest ~size:rest_size;
      write_header t c ~size:need ~inuse:true ~prev_inuse
    end
    else begin
      (* allocate the whole chunk: the next chunk's prev becomes in-use *)
      write_header t c ~size ~inuse:true ~prev_inuse;
      match next_chunk c ~size ~tp:(top t) with
      | 0 ->
        (* a free chunk is never adjacent to top, so this cannot happen *)
        raise (Corrupt "Palloc: free chunk adjacent to top")
      | n -> set_prev_inuse t n true
    end

  (* Unlink the free chunk [c], whose header [h] was just loaded, and
     allocate [need] bytes of it. *)
  let take t c h ~need =
    unlink t c;
    Fault.hit fp_alloc_split;
    split t c ~size:(hdr_size h) ~need ~prev_inuse:(hdr_prev_inuse h);
    c

  (* First fit along a bin's list from [c]: take the first chunk of at
     least [need] bytes, or return 0.  Exact-size bins fit on the first
     element.  The fitting chunk's header goes to [take] as loaded. *)
  let rec first_fit t ~need c =
    if c = 0 then 0
    else
      let h = read_header t c in
      if hdr_size h >= need then take t c h ~need
      else first_fit t ~need (M.load t.mem c)

  let take_from_bin t i ~need = first_fit t ~need (M.load t.mem (bin_addr t i))

  (* The frontier, once it is known to have room for [need] bytes. *)
  let frontier_for t ~need =
    let tp = top t in
    if tp + need > t.limit then
      raise (Out_of_memory { requested = need; available = t.limit - tp });
    tp

  let carve_top t ~tp ~need =
    let c = tp + 8 in
    let fp = frontier_prev t in
    write_header t c ~size:need ~inuse:true ~prev_inuse:(fp <> 0);
    mark_start t c;
    set_top t (tp + need);
    (* already 1 after almost every top allocation: skip the store *)
    if fp <> 1 then set_frontier_prev t 1;
    c

  let alloc_from_top t ~need = carve_top t ~tp:(frontier_for t ~need) ~need

  (* Visit the bins of mask word [k] whose bits are in [bits], lowest
     first, and take the first chunk that fits.  Returns that chunk
     (> 0), or [- stale] where [stale] holds the visited bits whose bin
     was empty. *)
  let rec search t ~need k bits stale =
    if bits = 0 then -stale
    else
      let j = lowest_bit bits 0 in
      let bit = 1 lsl j in
      match M.load t.mem (bin_addr t ((k lsl 5) + j)) with
      | 0 -> search t ~need k (bits lxor bit) (stale lor bit)
      | head ->
        match first_fit t ~need head with
        | 0 -> search t ~need k (bits lxor bit) stale
        | c -> c

  (* The bins from [bin_index need] up, in order, as the 64-bin scan
     visits them, skipping those whose mask bit is clear: they are empty.
     Stale bits are cleared only when the search falls through to the
     frontier: after a take, the split may just have refilled one of
     those bins. *)
  let alloc t nbytes =
    if nbytes < 0 then invalid_arg "Palloc.alloc: negative size";
    let need = chunk_size nbytes in
    let b = bin_index need in
    let w0 = if b < 32 then M.load t.mem (mask_addr t 0) else 0 in
    let r0 = search t ~need 0 (w0 land bins_from b) 0 in
    if r0 > 0 then r0
    else
      let w1 = M.load t.mem (mask_addr t 1) in
      let r1 = search t ~need 1 (w1 land bins_from (b - 32)) 0 in
      if r1 > 0 then r1
      else begin
        let tp = frontier_for t ~need in
        if r0 <> 0 then M.store t.mem (mask_addr t 0) (w0 land lnot (-r0));
        if r1 <> 0 then M.store t.mem (mask_addr t 1) (w1 land lnot (-r1));
        carve_top t ~tp ~need
      end

  (* ---- free ---- *)

  (* Decide whether [c] is the payload offset of a live chunk.  Freeing
     anything else (a stale pointer, an interior offset, a chunk whose
     header was absorbed by an earlier coalescing free) would silently
     corrupt the free lists, so [free] refuses with a typed
     {!Invalid_free} instead.  The chunk-start bitmap makes the check
     exact in O(1): a bit is set iff a chunk starts at that granule.
     [tp] is the frontier, loaded by the caller; returns the chunk's
     header. *)
  let invalid_free c reason = raise (Invalid_free { offset = c; reason })

  let validate_free t c ~tp =
    if c < t.ds || header c >= tp then invalid_free c "offset outside the heap";
    if (c - t.ds) land 15 <> 0 then invalid_free c "misaligned chunk offset";
    if not (is_chunk_start t c) then
      invalid_free c "interior offset, not a chunk start";
    let h = read_header t c in
    if hdr_size h < min_chunk || header c + hdr_size h > tp then
      raise
        (Corrupt (Printf.sprintf "Palloc.free: chunk %d has bad header" c));
    if not (hdr_inuse h) then invalid_free c "double free";
    h

  (* [top] is loaded once: nothing before the top merge moves it. *)
  let free t c =
    let tp = top t in
    let h = validate_free t c ~tp in
    let size = hdr_size h in
    let c, size, prev_inuse =
      (* backward coalescing via the previous chunk's footer *)
      if hdr_prev_inuse h then (c, size, true)
      else begin
        let prev_size = M.load t.mem (header c - 8) in
        let p = c - prev_size in
        unlink t p;
        unmark_start t c;
        let ph = read_header t p in
        (p, size + prev_size, hdr_prev_inuse ph)
      end
    in
    let size =
      (* forward coalescing *)
      match next_chunk c ~size ~tp with
      | 0 -> size
      | n ->
        let nh = read_header t n in
        if hdr_inuse nh then size
        else begin
          unlink t n;
          unmark_start t n;
          size + hdr_size nh
        end
    in
    Fault.hit fp_free_unlinked;
    if header c + size = tp then begin
      (* give the space back to the bump frontier *)
      unmark_start t c;
      set_top t (header c);
      set_frontier_prev t (if prev_inuse then 1 else 0)
    end
    else begin
      write_header t c ~size ~inuse:false ~prev_inuse;
      write_footer t c ~size;
      let n = next_chunk c ~size ~tp in
      if n <> 0 then set_prev_inuse t n false;
      insert_into_bin t c ~size
    end

  (* ---- accounting & checking ---- *)

  let used_bytes t = top t - t.base

  let data_start t = t.ds

  let usable_size t c = hdr_size (read_header t c) - 8

  let check t =
    let errors = ref [] in
    let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
    let free_by_walk = Hashtbl.create 16 in
    let words = bitmap_words ~size:(t.limit - t.base) in
    let starts = Array.make words 0 in (* the bitmap the walk implies *)
    (* 1. walk the heap *)
    let tp = top t in
    let rec walk c prev_inuse_expected =
      if c - 8 < tp then begin
        let h = read_header t c in
        let size = hdr_size h in
        if size < min_chunk || size mod 16 <> 0 then
          err "chunk %d has bad size %d" c size
        else if c - 8 + size > t.limit then err "chunk %d overruns the arena" c
        else begin
          let g = (c - t.ds) lsr 4 in
          starts.(g lsr 5) <- starts.(g lsr 5) lor (1 lsl (g land 31));
          if hdr_prev_inuse h <> prev_inuse_expected then
            err "chunk %d prev_inuse=%b, expected %b" c (hdr_prev_inuse h)
              prev_inuse_expected;
          if not (hdr_inuse h) then begin
            Hashtbl.replace free_by_walk c size;
            if M.load t.mem (header c + size - 8) <> size then
              err "free chunk %d footer mismatch" c
          end;
          if c - 8 + size > tp then err "chunk %d overruns top" c
          else walk (c + size) (hdr_inuse h)
        end
      end
      else if c - 8 <> tp then err "heap does not tile exactly to top"
    in
    walk (data_start t) true;
    (* frontier flag must match the last chunk *)
    let rec last_inuse c acc =
      if c - 8 < tp then begin
        let h = read_header t c in
        let size = hdr_size h in
        if size < min_chunk then acc (* corrupt: already reported by walk *)
        else last_inuse (c + size) (hdr_inuse h)
      end
      else acc
    in
    let last = last_inuse (data_start t) true in
    if (frontier_prev t <> 0) <> last then
      err "frontier_prev=%d but last chunk inuse=%b" (frontier_prev t) last;
    if M.load t.mem (t.base + o_limit) <> t.limit then
      err "limit word %d, arena opened with limit %d"
        (M.load t.mem (t.base + o_limit)) t.limit;
    (* 2. the chunk-start bitmap holds exactly the walked chunk starts *)
    for i = 0 to words - 1 do
      let diff = M.load t.mem (t.bitmap + (8 * i)) lxor starts.(i) in
      if diff <> 0 then
        for b = 0 to Sys.int_size - 1 do
          if diff land (1 lsl b) <> 0 then
            if b >= 32 then err "bitmap word %d has stray bit %d" i b
            else
              let c = t.ds + (16 * ((i lsl 5) + b)) in
              err "bitmap bit for %d is %b, heap walk says %b" c
                (starts.(i) land (1 lsl b) = 0)
                (starts.(i) land (1 lsl b) <> 0)
        done
    done;
    (* 3. walk the bins *)
    let free_by_bins = Hashtbl.create 16 in
    for i = 0 to nbins - 1 do
      let rec follow c prev_fd_addr =
        if c <> 0 then begin
          if Hashtbl.mem free_by_bins c then err "chunk %d in two bins" c
          else begin
            let h = read_header t c in
            if hdr_inuse h then err "in-use chunk %d in bin %d" c i;
            let size = hdr_size h in
            if bin_index size <> i then
              err "chunk %d (size %d) in wrong bin %d" c size i;
            if M.load t.mem (c + 8) <> prev_fd_addr then
              err "chunk %d bad back-link" c;
            Hashtbl.replace free_by_bins c size;
            follow (M.load t.mem c) c
          end
        end
      in
      follow (M.load t.mem (bin_addr t i)) (bin_addr t i)
    done;
    (* 4. every non-empty bin has its mask bit set; a set bit over an
       empty bin is stale, which is allowed *)
    for k = 0 to mask_words - 1 do
      let w = M.load t.mem (mask_addr t k) in
      if w lsr 32 <> 0 then err "mask word %d has stray bits above bit 31" k
    done;
    for i = 0 to nbins - 1 do
      let w = M.load t.mem (mask_addr t (i lsr 5)) in
      if M.load t.mem (bin_addr t i) <> 0 && w land (1 lsl (i land 31)) = 0
      then err "bin %d is non-empty but its mask bit is clear" i
    done;
    (* 5. the heap walk and the bins agree *)
    Hashtbl.iter
      (fun c _ ->
        if not (Hashtbl.mem free_by_bins c) then
          err "free chunk %d not in any bin" c)
      free_by_walk;
    Hashtbl.iter
      (fun c _ ->
        if not (Hashtbl.mem free_by_walk c) then
          err "bin member %d not free in heap walk" c)
      free_by_bins;
    match !errors with [] -> Ok () | es -> Error (String.concat "; " es)
end
