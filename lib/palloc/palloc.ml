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
     base+32  bins[NBINS]  heads of segregated free lists (0 = empty)
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
     argument in O(1). *)

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

(* "PALB".  The format before the chunk-start bitmap ("PALL") kept its
   first chunks where this one keeps the bitmap: [attach] refuses it as a
   bad magic rather than misread it. *)
let magic = 0x50414C42

let nbins = 64
let min_chunk = 32
let small_max = 512

(* metadata field offsets relative to [base] *)
let o_magic = 0
let o_top = 8
let o_limit = 16
let o_frontier_prev = 24
let o_bins = 32

let meta_bytes = o_bins + (8 * nbins)

let top_offset = o_top

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

  (* next chunk's payload offset, or None when this chunk touches top *)
  let next_chunk t c ~size =
    let n = header c + size + 8 in
    if n - 8 >= top t then None else Some n

  let set_prev_inuse t c v =
    let h = read_header t c in
    let h = if v then h lor 2 else h land lnot 2 in
    M.store t.mem (header c) h

  (* ---- free-list linking ---- *)

  let insert_into_bin t c ~size =
    let slot = bin_addr t (bin_index size) in
    let old = M.load t.mem slot in
    M.store t.mem c old;           (* fd *)
    M.store t.mem (c + 8) slot;    (* bk = address of predecessor's fd *)
    M.store t.mem slot c;
    if old <> 0 then M.store t.mem (old + 8) c

  let unlink t c =
    let fd = M.load t.mem c in
    let bk = M.load t.mem (c + 8) in
    M.store t.mem bk fd;
    if fd <> 0 then M.store t.mem (fd + 8) bk

  (* ---- chunk-start bitmap ---- *)

  (* (word address, bit mask) of the granule chunk [c] starts at *)
  let bit_of t c =
    let g = (c - t.ds) lsr 4 in
    (t.bitmap + ((g lsr 5) lsl 3), 1 lsl (g land 31))

  let is_chunk_start t c =
    let a, m = bit_of t c in
    M.load t.mem a land m <> 0

  (* Both store only when the word changes: under an interposing PTM a
     redundant store would still cost a redo range and a write-back.  At
     every call site the invariant says the bit flips, so each call is
     one load and one store. *)
  let mark_start t c =
    let a, m = bit_of t c in
    let w = M.load t.mem a in
    if w land m = 0 then M.store t.mem a (w lor m)

  let unmark_start t c =
    let a, m = bit_of t c in
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

  let chunk_size_for nbytes = max min_chunk (round16 (nbytes + 8))

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
      write_header t c ~size:need ~inuse:true ~prev_inuse;
      need
    end
    else begin
      (* allocate the whole chunk: the next chunk's prev becomes in-use *)
      write_header t c ~size ~inuse:true ~prev_inuse;
      (match next_chunk t c ~size with
       | Some n -> set_prev_inuse t n true
       | None ->
         (* a free chunk is never adjacent to top, so this cannot happen *)
         raise (Corrupt "Palloc: free chunk adjacent to top"));
      size
    end

  (* First fit within a bin; exact-size bins fit on the first element. *)
  let take_from_bin t i ~need =
    let rec scan c =
      if c = 0 then None
      else
        let size = hdr_size (read_header t c) in
        if size >= need then Some (c, size)
        else scan (M.load t.mem c)
    in
    match scan (M.load t.mem (bin_addr t i)) with
    | None -> None
    | Some (c, size) ->
      unlink t c;
      Fault.hit fp_alloc_split;
      let prev_inuse = hdr_prev_inuse (read_header t c) in
      let _ = split t c ~size ~need ~prev_inuse in
      Some c

  let alloc_from_top t ~need =
    let tp = top t in
    if tp + need > t.limit then
      raise (Out_of_memory { requested = need; available = t.limit - tp });
    let c = tp + 8 in
    let fp = frontier_prev t in
    write_header t c ~size:need ~inuse:true ~prev_inuse:(fp <> 0);
    mark_start t c;
    set_top t (tp + need);
    (* already 1 after almost every top allocation: skip the store *)
    if fp <> 1 then set_frontier_prev t 1;
    c

  let alloc t nbytes =
    if nbytes < 0 then invalid_arg "Palloc.alloc: negative size";
    let need = chunk_size_for nbytes in
    let rec try_bins i =
      if i >= nbins then alloc_from_top t ~need
      else
        match take_from_bin t i ~need with
        | Some c -> c
        | None -> try_bins (i + 1)
    in
    try_bins (bin_index need)

  (* ---- free ---- *)

  (* Decide whether [c] is the payload offset of a live chunk.  Freeing
     anything else (a stale pointer, an interior offset, a chunk whose
     header was absorbed by an earlier coalescing free) would silently
     corrupt the free lists, so [free] refuses with a typed
     {!Invalid_free} instead.  The chunk-start bitmap makes the check
     exact in O(1): a bit is set iff a chunk starts at that granule.
     Returns the chunk's header. *)
  let validate_free t c =
    let invalid reason = raise (Invalid_free { offset = c; reason }) in
    let tp = top t in
    if c < t.ds || header c >= tp then invalid "offset outside the heap";
    if (c - t.ds) land 15 <> 0 then invalid "misaligned chunk offset";
    if not (is_chunk_start t c) then
      invalid "interior offset, not a chunk start";
    let h = read_header t c in
    if hdr_size h < min_chunk || header c + hdr_size h > tp then
      raise
        (Corrupt (Printf.sprintf "Palloc.free: chunk %d has bad header" c));
    if not (hdr_inuse h) then invalid "double free";
    h

  let free t c =
    let h = validate_free t c in
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
    let c, size =
      (* forward coalescing *)
      match next_chunk t c ~size with
      | Some n when not (hdr_inuse (read_header t n)) ->
        let nsize = hdr_size (read_header t n) in
        unlink t n;
        unmark_start t n;
        (c, size + nsize)
      | Some _ | None -> (c, size)
    in
    Fault.hit fp_free_unlinked;
    if header c + size = top t then begin
      (* give the space back to the bump frontier *)
      unmark_start t c;
      set_top t (header c);
      set_frontier_prev t (if prev_inuse then 1 else 0)
    end
    else begin
      write_header t c ~size ~inuse:false ~prev_inuse;
      write_footer t c ~size;
      (match next_chunk t c ~size with
       | Some n -> set_prev_inuse t n false
       | None -> ());
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
    (* 4. the two views agree *)
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
