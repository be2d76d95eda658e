(* Simulated byte-addressable persistent memory.

   Two images back the region:
   - [vol]: the volatile image — CPU caches plus memory as the running
     program sees them.  All loads and stores operate here.
   - [per]: the persistent image — what would survive a power failure.

   A store dirties the cache line(s) it touches.  [pwb] marks a dirty line
   pending; [pfence]/[psync] copy all pending lines from [vol] to [per]
   (a conservative rendition of the PCSO ordering contract of §4.1: a fence
   is a point after which every preceding pwb is durable).  With an
   [ordered_pwb] profile (CLFLUSH) the pwb itself persists the line.

   Crashes: [crash t policy] decides, per non-clean line, whether the line
   made it to the medium.  Pending lines model pwb-issued-but-not-fenced
   write-backs; dirty lines model arbitrary cache evictions — real caches
   may write back *any* dirty line at any time, so an adversarial policy
   may persist them too.  After the policy is applied the volatile image is
   replaced by the persistent one, as a restart would see it.

   Crash points: [set_trap t k] makes the k-th subsequent persistence-
   relevant primitive (store/pwb/fence) raise [Crash_point] *before*
   executing, letting tests systematically crash a transaction at every
   instruction boundary. *)

type policy =
  | Drop_all
  | Keep_all
  | Random_subset of int
  | Torn_words of int

exception Crash_point

exception Snapshot_corrupt of string

exception Media_error of { offset : int; line : int }

(* Media-fault injection policy: every persisted line of the targeted
   range rots independently with probability [rate], deterministically per
   [seed]; a rotten line takes a small burst of bit flips. *)
type rot = Media_rot of { seed : int; rate : float }

(* Media faults live in a per-line metadata layer next to [per]:

   - [sidecar.(l)] is the CRC-32 of line [l]'s persistent bytes as of its
     last write-back.  It is maintained incrementally: a write-back
     invalidates the entry ([crc_valid]) and the checksum of the freshly
     persisted bytes is recomputed at the next verification — the same
     value an eager update inside {!persist_line} would store, since only
     write-backs mutate [per], but fences that nobody audits stay cheap.
   - [tainted] marks lines whose medium has physically degraded
     (a [corrupt_*] call).  A *full-line* write-back heals the cell and
     clears the taint; a torn (partial) write-back cannot, so the stale
     sidecar entry keeps witnessing the fault.
   - [media_checks] arms CRC verification on loads.  It flips on at the
     first injected fault (and on loading a snapshot that carries one), so
     fault-free runs pay nothing. *)

type t = {
  vol : Bytes.t;
  per : Bytes.t;
  line : int;
  line_shift : int;
  lines : Line_set.t;
  sidecar : int array;
  crc_valid : Bytes.t;
  tainted : Bytes.t;
  stats : Stats.t;
  mutable media_checks : bool;
  fence : Fence.profile;
  mutable trap : int; (* -1 = disabled *)
  mutable dead : bool;
  persist : int -> unit;
      (* [persist_line t], built once so a fence allocates no closure *)
  crcs : int array;  (* the scrub kernel's two CRC slots *)
}

let persist_line t line =
  let off = line lsl t.line_shift in
  Bytes.blit t.vol off t.per off t.line;
  (* a full-line write-back supersedes whatever the medium held: the
     sidecar entry is refreshed (lazily) and a degraded cell is healed *)
  Bytes.unsafe_set t.crc_valid line '\000';
  Bytes.unsafe_set t.tainted line '\000'

let create ?(line_size = 64) ?(fence = Fence.dram) ~size () =
  if size <= 0 then invalid_arg "Region.create: size must be positive";
  if line_size land (line_size - 1) <> 0 || line_size < 8 then
    invalid_arg "Region.create: line_size must be a power of two >= 8";
  let size = (size + line_size - 1) land lnot (line_size - 1) in
  let shift =
    let rec log2 n acc = if n = 1 then acc else log2 (n lsr 1) (acc + 1) in
    log2 line_size 0
  in
  let vol = Bytes.make size '\000' and per = Bytes.make size '\000' in
  let lines = Line_set.create ~lines:(size lsr shift) in
  let sidecar = Array.make (size lsr shift) 0 in
  let crc_valid = Bytes.make (size lsr shift) '\000' in
  let tainted = Bytes.make (size lsr shift) '\000' in
  let rec t =
    { vol; per; line = line_size; line_shift = shift; lines; sidecar;
      crc_valid; tainted; stats = Stats.create (); media_checks = false;
      fence; trap = -1; dead = false;
      persist = (fun line -> persist_line t line); crcs = Array.make 2 0 }
  in
  t

let size t = Bytes.length t.vol
let line_size t = t.line
let stats t = t.stats

let set_trap t k = t.trap <- k
let clear_trap t = t.trap <- -1

(* Once the trap fires, the region is "dead": every subsequent primitive
   raises until {!crash} resolves the failure.  This models a powered-off
   machine — in particular, code that (transitively) catches [Crash_point]
   cannot keep executing and commit a torn transaction. *)
let step t =
  if t.dead then raise Crash_point;
  if t.trap >= 0 then begin
    if t.trap = 0 then begin
      t.trap <- -1;
      t.dead <- true;
      raise Crash_point
    end;
    t.trap <- t.trap - 1
  end

let check_alive t = if t.dead then raise Crash_point

let is_dead t = t.dead

(* Power the machine off right now (a failpoint fired): the region goes
   dead exactly as if an armed trap had fired, and stays dead until
   {!crash} resolves the failure. *)
let kill t =
  t.trap <- -1;
  t.dead <- true;
  raise Crash_point

let check_range t off len what =
  if off < 0 || len < 0 || off + len > Bytes.length t.vol then
    invalid_arg
      (Printf.sprintf "Region.%s: range [%d, %d) outside region of %d bytes"
         what off (off + len) (Bytes.length t.vol))

(* ---- per-line CRC sidecar ---- *)

let line_count t = Bytes.length t.per lsr t.line_shift

let line_crc t line = Crc32.bytes t.per (line lsl t.line_shift) t.line

let refresh_sidecar t line =
  t.sidecar.(line) <- line_crc t line;
  Bytes.unsafe_set t.crc_valid line '\001'

(* Does line [line]'s sidecar vouch for persistent bytes whose CRC is
   [crc]?  An invalidated entry (a write-back happened since the last
   audit) is refreshed to [crc], the checksum of the just-persisted
   bytes, and trivially matches. *)
let sidecar_ok t line crc =
  if Bytes.unsafe_get t.crc_valid line = '\001' then t.sidecar.(line) = crc
  else begin
    t.sidecar.(line) <- crc;
    Bytes.unsafe_set t.crc_valid line '\001';
    true
  end

(* Does line [line]'s persistent content still match its sidecar CRC? *)
let media_ok t ~line = sidecar_ok t line (line_crc t line)

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

let rec words_equal b i j n =
  n = 0
  || ((get64u b i : int64) = get64u b j && words_equal b (i + 8) (j + 8) (n - 8))

(* The scrub verdicts of one line pair: bit 0 is set when [line] is clean
   and fails {!media_ok}, bit 1 likewise for [twin].  A CRC is a function
   of the bytes, so when both lines are clean and their persistent bytes
   agree (compared in place, a word at a time) one CRC serves both
   sidecars; otherwise each line is verified on its own.  Either way the
   verdicts, and the sidecar entries refreshed on the way, are exactly
   those of two {!media_ok} calls. *)
let verify_pair t line twin =
  let clean = Line_set.is_clean t.lines line
  and twin_clean = Line_set.is_clean t.lines twin in
  if clean && twin_clean
     && words_equal t.per (line lsl t.line_shift) (twin lsl t.line_shift) t.line
  then begin
    let crc = line_crc t line in
    (if sidecar_ok t line crc then 0 else 1)
    lor (if sidecar_ok t twin crc then 0 else 2)
  end
  else
    (if clean && not (media_ok t ~line) then 1 else 0)
    lor (if twin_clean && not (media_ok t ~line:twin) then 2 else 0)

(* The span kernel of the scrub.  A step takes the pairs [l] and [l + 1]
   at once when all four lines are clean: {!Crc32.twins} compares each
   line with its twin and checksums both pairs in one lockstep pass, and
   the four sidecars are checked against the two CRCs.  A step that fails
   any of that (a non-clean line, unequal bytes, a sidecar miss, or no
   partner for the last pair) verifies [l] alone with {!verify_pair} and
   moves on by one pair, so every verdict and refreshed sidecar is the
   single-pair path's: the lockstep checks [l]'s sidecars before
   [l + 1]'s, and a CRC refreshes an invalidated entry to the value the
   single-pair path would store.  [main_dirty] and [twin_dirty] are the
   first non-clean lines at or after [l] and [l + twin], rescanned only
   once the walk passes them. *)
let rec scan t l last twin main_dirty twin_dirty =
  if l > last then (last + 1) lsl 2
  else
    let main_dirty =
      if main_dirty < l then Line_set.first_non_clean t.lines ~first:l ~last
      else main_dirty
    and twin_dirty =
      if twin_dirty < l + twin then
        Line_set.first_non_clean t.lines ~first:(l + twin) ~last:(last + twin)
      else twin_dirty
    in
    if l < last && l + 1 < main_dirty && l + 1 + twin < twin_dirty
       && Crc32.twins t.per ~off:(l lsl t.line_shift)
            ~twin:(twin lsl t.line_shift) ~len:t.line t.crcs
          = 0
       && sidecar_ok t l (Array.unsafe_get t.crcs 0)
       && sidecar_ok t (l + twin) (Array.unsafe_get t.crcs 0)
       && sidecar_ok t (l + 1) (Array.unsafe_get t.crcs 1)
       && sidecar_ok t (l + 1 + twin) (Array.unsafe_get t.crcs 1)
    then scan t (l + 2) last twin main_dirty twin_dirty
    else
      let v = verify_pair t l (l + twin) in
      if v <> 0 then (l lsl 2) lor v
      else scan t (l + 1) last twin main_dirty twin_dirty

let scan_pairs t ~first ~last ~twin =
  let n = line_count t in
  if first <= last
     && (first < 0 || last >= n || first + twin < 0 || last + twin >= n)
  then
    invalid_arg
      (Printf.sprintf
         "Region.scan_pairs: lines [%d, %d] + %d outside region of %d" first
         last twin n);
  scan t first last twin (-1) (-1)

let line_is_clean t ~line = Line_set.is_clean t.lines line

let media_faults_armed t = t.media_checks

(* Verify the sidecar of every *clean* line a load touches (a dirty or
   pending line legitimately diverges from its persistent copy, and its
   next write-back supersedes whatever the medium holds). *)
let media_check t off len =
  if t.media_checks then begin
    let first = off lsr t.line_shift in
    let last = (off + len - 1) lsr t.line_shift in
    for line = first to last do
      if Line_set.is_clean t.lines line && not (media_ok t ~line) then begin
        t.stats.media_errors <- t.stats.media_errors + 1;
        raise (Media_error { offset = off; line })
      end
    done
  end

(* ---- loads ----

   A live region without armed media checks, read in range, takes one
   combined test and an unchecked read; everything else takes the slow
   path, which raises exactly as the checks always have (dead first,
   then range, then media).  The range tests are written so they cannot
   overflow. *)

external bswap64 : int64 -> int64 = "%bswap_int64"

let get_int64_le_unsafe b off =
  if Sys.big_endian then bswap64 (get64u b off) else get64u b off

let count_load t len =
  t.stats.loads <- t.stats.loads + 1;
  t.stats.load_bytes <- t.stats.load_bytes + len

let load_slow t off =
  check_alive t;
  check_range t off 8 "load";
  media_check t off 8;
  count_load t 8;
  Int64.to_int (Bytes.get_int64_le t.vol off)

let load t off =
  if t.dead || t.media_checks || off < 0 || off > Bytes.length t.vol - 8 then
    load_slow t off
  else begin
    count_load t 8;
    Int64.to_int (get_int64_le_unsafe t.vol off)
  end

let load_bytes_slow t off len =
  check_alive t;
  check_range t off len "load_bytes";
  media_check t off len;
  count_load t len;
  Bytes.sub_string t.vol off len

let load_bytes t off len =
  if t.dead || t.media_checks || off < 0 || len < 0
     || off > Bytes.length t.vol - len
  then load_bytes_slow t off len
  else begin
    count_load t len;
    let s = Bytes.create len in
    Bytes.unsafe_blit t.vol off s 0 len;
    Bytes.unsafe_to_string s
  end

(* [compare_bytes t off len s] is [String.compare (load_bytes t off len) s]
   without the copy: whole 8-byte words while they match, then the bytes
   of the first differing word (or of the tail), then the lengths.  Top-
   level recursions over unboxed words, so it allocates nothing.  It
   checks and counts exactly as [load_bytes t off len] does. *)

external string_get64u : string -> int -> int64 = "%caml_string_get64u"

let rec compare_tail b off s n i =
  if i = n then 0
  else
    let c =
      Char.code (Bytes.unsafe_get b (off + i))
      - Char.code (String.unsafe_get s i)
    in
    if c <> 0 then c else compare_tail b off s n (i + 1)

let rec compare_words b off s n i =
  if i + 8 <= n && (get64u b (off + i) : int64) = string_get64u s i then
    compare_words b off s n (i + 8)
  else compare_tail b off s n i

let compare_in_place b off len s =
  let slen = String.length s in
  let c = compare_words b off s (if len < slen then len else slen) 0 in
  if c < 0 then -1 else if c > 0 then 1 else Int.compare len slen

let compare_bytes_slow t off len s =
  check_alive t;
  check_range t off len "compare_bytes";
  media_check t off len;
  count_load t len;
  compare_in_place t.vol off len s

let compare_bytes t off len s =
  if t.dead || t.media_checks || off < 0 || len < 0
     || off > Bytes.length t.vol - len
  then compare_bytes_slow t off len s
  else begin
    count_load t len;
    compare_in_place t.vol off len s
  end

(* ---- stores ----

   As for loads: a live region with no armed trap, written in range,
   takes one combined test and an unchecked write; everything else takes
   the slow path, which checks the range, then counts the trap down (so
   an armed trap fires at the same primitive as ever), exactly as the
   checks always have. *)

external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let set_int64_le_unsafe b off v =
  if Sys.big_endian then set64u b off (bswap64 v) else set64u b off v

let dirty_range t off len =
  let first = off lsr t.line_shift in
  let last = (off + len - 1) lsr t.line_shift in
  for line = first to last do
    Line_set.set_dirty t.lines line
  done

let count_store t off =
  Line_set.set_dirty t.lines (off lsr t.line_shift);
  t.stats.stores <- t.stats.stores + 1;
  t.stats.nvm_bytes <- t.stats.nvm_bytes + 8

let store_slow t off v =
  check_range t off 8 "store";
  step t;
  Bytes.set_int64_le t.vol off (Int64.of_int v);
  count_store t off

let store t off v =
  if t.dead || t.trap >= 0 || off < 0 || off > Bytes.length t.vol - 8 then
    store_slow t off v
  else begin
    set_int64_le_unsafe t.vol off (Int64.of_int v);
    count_store t off
  end

let store_bytes t off s =
  let len = String.length s in
  check_range t off len "store_bytes";
  step t;
  Bytes.blit_string s 0 t.vol off len;
  dirty_range t off len;
  t.stats.stores <- t.stats.stores + 1;
  t.stats.nvm_bytes <- t.stats.nvm_bytes + len

(* Region-internal copy (e.g. main -> back).  A plain volatile memory copy:
   the destination lines become dirty and must be pwb'ed by the caller. *)
let copy t ~src ~dst ~len =
  check_range t src len "copy(src)";
  check_range t dst len "copy(dst)";
  step t;
  Bytes.blit t.vol src t.vol dst len;
  dirty_range t dst len;
  t.stats.nvm_bytes <- t.stats.nvm_bytes + len;
  t.stats.copy_calls <- t.stats.copy_calls + 1;
  t.stats.replicated_bytes <- t.stats.replicated_bytes + len

(* ---- persistence primitives ---- *)

let pwb_line t line =
  step t;
  t.stats.pwbs <- t.stats.pwbs + 1;
  t.stats.delay_ns <- t.stats.delay_ns + t.fence.Fence.pwb_ns;
  if t.fence.Fence.ordered_pwb then begin
    persist_line t line;
    (* the line is persisted in place: forget its dirty/pending mark so
       fences and crashes do not keep revisiting it *)
    Line_set.set_clean t.lines line
  end
  else Line_set.set_pending t.lines line

let pwb t off =
  check_range t off 1 "pwb";
  pwb_line t (off lsr t.line_shift)

let pwb_range t off len =
  if len > 0 then begin
    check_range t off len "pwb_range";
    let first = off lsr t.line_shift in
    let last = (off + len - 1) lsr t.line_shift in
    for line = first to last do
      pwb_line t line
    done
  end

let pfence t =
  step t;
  t.stats.pfences <- t.stats.pfences + 1;
  t.stats.delay_ns <- t.stats.delay_ns + t.fence.Fence.pfence_ns;
  Line_set.flush_pending t.lines t.persist

let psync t =
  step t;
  t.stats.psyncs <- t.stats.psyncs + 1;
  t.stats.delay_ns <- t.stats.delay_ns + t.fence.Fence.psync_ns;
  Line_set.flush_pending t.lines t.persist

(* ---- crash simulation ---- *)

(* Deterministic per-line coin: a 63-bit mix of the seed and line index. *)
let line_coin seed line =
  let x = ref (seed * 0x1e3779b97f4a7c15 + line * 0x3f58476d1ce4e5b9) in
  x := !x lxor (!x lsr 30);
  x := !x * 0x3f58476d1ce4e5b9;
  x := !x lxor (!x lsr 27);
  !x land 1 = 0

(* Per-word coin for the torn-word adversary: fold the word index into the
   line mix so every 8-byte word of every line flips independently. *)
let word_coin seed line word = line_coin (seed + (word * 0x9e3779b9) + 1) line

(* ADR platforms guarantee only 8-byte store atomicity: a cache line that
   was in flight at the failure may reach the medium partially, some of its
   words new and some old.  Each aligned 8-byte word of the line
   independently keeps its pre-crash persistent value or takes the volatile
   one. *)
let persist_torn_words t seed line =
  let off = line lsl t.line_shift in
  let all = ref true in
  for w = 0 to (t.line lsr 3) - 1 do
    if word_coin seed line w then
      Bytes.blit t.vol (off + (8 * w)) t.per (off + (8 * w)) 8
    else all := false
  done;
  if !all then begin
    (* every word made it: indistinguishable from a full write-back *)
    Bytes.unsafe_set t.crc_valid line '\000';
    Bytes.unsafe_set t.tainted line '\000'
  end
  else if Bytes.unsafe_get t.tainted line = '\000' then
    (* an ordinary torn line is a *crash* artifact, not a media fault: the
       mixture is what the medium now holds, so the sidecar blesses it *)
    Bytes.unsafe_set t.crc_valid line '\000'
  (* else: a torn write-back over degraded media cannot heal the cell; the
     stale sidecar entry keeps witnessing the fault *)

let crash t policy =
  let decide line was_pending =
    match policy with
    | Drop_all -> ()
    | Keep_all -> persist_line t line
    | Random_subset seed ->
      (* pending lines persist a bit more often than merely-dirty ones,
         but both are candidates: caches evict whatever they like. *)
      if line_coin seed line || (was_pending && line_coin (seed + 1) line)
      then persist_line t line
    | Torn_words seed -> persist_torn_words t seed line
  in
  Line_set.drain_all t.lines decide;
  Bytes.blit t.per 0 t.vol 0 (Bytes.length t.per);
  t.stats.crashes <- t.stats.crashes + 1;
  t.trap <- -1;
  t.dead <- false

let unpersisted_lines t = Line_set.cardinal t.lines

(* Test-only copy of the whole persistent image (recovery-idempotence
   checks compare these byte for byte). *)
let persistent_snapshot t = Bytes.to_string t.per

(* ---- media-fault injection ---- *)

(* Deterministic 62-bit mixer for fault placement (splitmix-style, like
   [line_coin] but returning the whole word). *)
let mix seed i =
  let x = ref ((seed * 0x1e3779b97f4a7c15) + ((i + 1) * 0x3f58476d1ce4e5b9)) in
  x := !x lxor (!x lsr 30);
  x := !x * 0x3f58476d1ce4e5b9;
  x := !x lxor (!x lsr 27);
  !x land max_int

(* The medium under [line] degrades.  The sidecar must witness the
   *pre-rot* content — an incrementally maintained checksum was computed
   when the line was last written back, before the cell decayed — so a
   lazily invalidated entry is refreshed first. *)
let degrade t line =
  if Bytes.unsafe_get t.crc_valid line = '\000' then refresh_sidecar t line;
  Bytes.unsafe_set t.tainted line '\001';
  t.media_checks <- true

(* A clean line may be silently refetched from the medium at any moment
   (its cached copy is not dirty, so the cache is free to drop it); mirror
   the rot into the volatile image so the next load observes it.  Dirty and
   pending lines keep their cached data — the program's pending write-back
   supersedes the medium. *)
let mirror_if_clean t line =
  if Line_set.is_clean t.lines line then begin
    let off = line lsl t.line_shift in
    Bytes.blit t.per off t.vol off t.line
  end

let flip_bit t byte bit =
  Bytes.unsafe_set t.per byte
    (Char.chr (Char.code (Bytes.unsafe_get t.per byte) lxor (1 lsl bit)))

let corrupt_line ?(seed = 0) t ~line =
  if line < 0 || line >= line_count t then
    invalid_arg
      (Printf.sprintf "Region.corrupt_line: line %d outside region of %d lines"
         line (line_count t));
  degrade t line;
  let off = line lsl t.line_shift in
  for w = 0 to (t.line lsr 3) - 1 do
    Bytes.set_int64_le t.per
      (off + (8 * w))
      (Int64.of_int (mix (seed + w) line))
  done;
  mirror_if_clean t line

let corrupt_bits t ~seed ~off ~len ~flips =
  check_range t off len "corrupt_bits";
  if len = 0 || flips <= 0 then
    invalid_arg "Region.corrupt_bits: need a non-empty range and flips > 0";
  for i = 0 to flips - 1 do
    let bit = mix seed i mod (len * 8) in
    let byte = off + (bit / 8) in
    degrade t (byte lsr t.line_shift);
    flip_bit t byte (bit mod 8);
    mirror_if_clean t (byte lsr t.line_shift)
  done

let inject_rot ?(off = 0) ?len t (Media_rot { seed; rate }) =
  let len =
    match len with Some l -> l | None -> Bytes.length t.per - off
  in
  check_range t off len "inject_rot";
  if not (rate >= 0.0 && rate <= 1.0) then
    invalid_arg "Region.inject_rot: rate must be in [0, 1]";
  if len = 0 then 0
  else begin
    let first = off lsr t.line_shift in
    let last = (off + len - 1) lsr t.line_shift in
    let rotted = ref 0 in
    for line = first to last do
      if float_of_int (mix seed line land 0xFFFFF) /. 1048576.0 < rate
      then begin
        incr rotted;
        degrade t line;
        (* a burst of 1-3 bit flips, confined to the requested range *)
        let lo = max off (line lsl t.line_shift) in
        let hi = min (off + len) ((line + 1) lsl t.line_shift) in
        let nbits = 1 + (mix (seed + 1) line mod 3) in
        for i = 0 to nbits - 1 do
          let bit = mix (seed + 2 + i) line mod ((hi - lo) * 8) in
          flip_bit t (lo + (bit / 8)) (bit mod 8)
        done;
        mirror_if_clean t line
      end
    done;
    !rotted
  end

(* ---- file persistence ----

   The persistent image can be written to / restored from a file, which
   is what makes the simulated NVM survive an actual process restart
   (the paper's regions live in an mmap'd file).  Only the persistent
   image travels: saving is equivalent to a clean shutdown followed by a
   restart on load.

   Snapshot format (all multi-byte integers big-endian, 4 bytes):

     offset  0  magic       "ROMULUS-PMEM-3\n" (15 bytes)
     offset 15  version     format version, currently 3
     offset 19  line_size   cache-line size of the saved region
     offset 23  length      payload bytes
     offset 27  crc32       CRC-32 (IEEE) over the payload
     offset 31  scrc32      CRC-32 (IEEE) over the sidecar section
     offset 35  payload     the persistent image, [length] bytes
     then       sidecar     one CRC-32 per line, 4 bytes each

   A snapshot that fails any header check — wrong magic, unsupported
   version, nonsensical geometry, file length that disagrees with the
   header, or a payload/sidecar whose CRC does not match — is rejected
   with {!Snapshot_corrupt}.  Nothing of a corrupt file is ever loaded.

   The sidecar travels with the image, so a *detected-but-unrepaired*
   media fault survives a save/load round trip: a line whose stored
   sidecar entry disagrees with its payload bytes is restored tainted,
   with media checks armed, rather than silently blessed.  (The file
   itself is still fully validated: the payload CRC and the sidecar-
   section CRC cover every byte, so any flip *in the file* is a typed
   {!Snapshot_corrupt}, never a phantom media fault.) *)

let file_magic = "ROMULUS-PMEM-3\n"
let file_magic_prefix = "ROMULUS-PMEM-"
let file_version = 3
let file_header_bytes = String.length file_magic + 20

let save_to_file t path =
  (* a save is a clean shutdown: every lazily invalidated sidecar entry is
     brought up to date with the persistent bytes it describes *)
  for line = 0 to line_count t - 1 do
    if Bytes.unsafe_get t.crc_valid line = '\000' then refresh_sidecar t line
  done;
  let sidecar = Bytes.create (4 * line_count t) in
  for line = 0 to line_count t - 1 do
    Bytes.set_int32_be sidecar (4 * line) (Int32.of_int t.sidecar.(line))
  done;
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc file_magic;
      output_binary_int oc file_version;
      output_binary_int oc t.line;
      output_binary_int oc (Bytes.length t.per);
      output_binary_int oc (Crc32.bytes t.per 0 (Bytes.length t.per));
      output_binary_int oc (Crc32.bytes sidecar 0 (Bytes.length sidecar));
      output_bytes oc t.per;
      output_bytes oc sidecar)

let load_from_file ?fence path =
  let corrupt fmt =
    Printf.ksprintf (fun s -> raise (Snapshot_corrupt (path ^ ": " ^ s))) fmt
  in
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try
        let magic = really_input_string ic (String.length file_magic) in
        if magic <> file_magic then
          if String.length magic >= String.length file_magic_prefix
             && String.sub magic 0 (String.length file_magic_prefix)
                = file_magic_prefix
          then corrupt "unsupported snapshot format (magic %S)" magic
          else corrupt "not a region snapshot (magic %S)" magic;
        let version = input_binary_int ic in
        if version <> file_version then
          corrupt "unsupported format version %d (want %d)" version
            file_version;
        let line_size = input_binary_int ic in
        if line_size < 8 || line_size > 65536
           || line_size land (line_size - 1) <> 0
        then corrupt "bad line size %d" line_size;
        let size = input_binary_int ic in
        if size <= 0 || size land (line_size - 1) <> 0 then
          corrupt "bad region size %d (line size %d)" size line_size;
        let shift =
          let rec log2 n acc =
            if n = 1 then acc else log2 (n lsr 1) (acc + 1)
          in
          log2 line_size 0
        in
        let nlines = size lsr shift in
        if in_channel_length ic <> file_header_bytes + size + (4 * nlines)
        then
          corrupt "truncated or oversized payload: file is %d bytes, want %d"
            (in_channel_length ic)
            (file_header_bytes + size + (4 * nlines));
        (* input_binary_int sign-extends bit 31; normalize to [0, 2^32) *)
        let crc = input_binary_int ic land 0xFFFFFFFF in
        let scrc = input_binary_int ic land 0xFFFFFFFF in
        let t = create ~line_size ?fence ~size () in
        really_input ic t.per 0 size;
        let actual = Crc32.bytes t.per 0 size in
        if actual <> crc then
          corrupt "payload checksum mismatch (stored %08x, computed %08x)"
            (crc land 0xFFFFFFFF) (actual land 0xFFFFFFFF);
        let sidecar = Bytes.create (4 * nlines) in
        really_input ic sidecar 0 (4 * nlines);
        let sactual = Crc32.bytes sidecar 0 (4 * nlines) in
        if sactual <> scrc then
          corrupt "sidecar checksum mismatch (stored %08x, computed %08x)"
            (scrc land 0xFFFFFFFF) (sactual land 0xFFFFFFFF);
        Bytes.blit t.per 0 t.vol 0 size;
        for line = 0 to nlines - 1 do
          let stored =
            Int32.to_int (Bytes.get_int32_be sidecar (4 * line))
            land 0xFFFFFFFF
          in
          t.sidecar.(line) <- stored;
          Bytes.unsafe_set t.crc_valid line '\001';
          if stored <> line_crc t line then begin
            (* the snapshot faithfully carried a media fault that was
               detected but not repaired before the save *)
            Bytes.unsafe_set t.tainted line '\001';
            t.media_checks <- true
          end
        done;
        t
      with End_of_file -> corrupt "truncated header")

(* One file per shard region under a common base path: keeps a sharded
   store's snapshot a predictable family ("db.shard0", "db.shard1", ...)
   instead of an ad-hoc scheme per caller. *)
let shard_snapshot_path base ~shard =
  if shard < 0 then
    invalid_arg "Region.shard_snapshot_path: negative shard index";
  Printf.sprintf "%s.shard%d" base shard
