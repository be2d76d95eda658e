(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), slicing-by-8.
   Used to checksum region snapshot files and every line's sidecar: the
   persistence layer must detect media corruption (bit flips,
   truncation) instead of silently loading garbage into a "recovered"
   region, and recovery's scrub checksums every used line, so the loop
   is the cost of a store open.

   [tables] holds eight 256-entry tables back to back: table 0 is the
   classic bytewise table, and entry [n] of table [k] is the CRC
   contribution of byte [n] followed by [k] zero bytes.  One step then
   folds 8 input bytes with eight independent lookups instead of a chain
   of eight dependent ones.  The tables are built once, at module
   initialisation, and never written again. *)

let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) lsl 8) + n) in
      t.((k lsl 8) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

(* Indexed unchecked: every index is a table base plus a value masked to
   8 bits. *)
let[@inline] tab k n = Array.unsafe_get tables ((k lsl 8) lor (n land 0xff))

(* The 8 bytes at [i], little-endian, read unchecked: [bytes] checks its
   range once and reads only inside it. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external swap64 : int64 -> int64 = "%bswap_int64"

let[@inline] word64 buf i =
  let w = get64u buf i in
  if Sys.big_endian then swap64 w else w

let bytes ?(crc = 0) buf off len =
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    invalid_arg "Crc32.bytes: range outside buffer";
  let stop = off + len in
  let c = ref (crc lxor 0xFFFFFFFF) in
  let i = ref off in
  (* The 8-byte steps assume a 32-bit register.  A [crc] that is not the
     result of a previous call leaves bits above 31, which the bytewise
     loop shifts down into the result; it alone then runs, so every
     input keeps the bytewise value. *)
  if !c lsr 32 = 0 then
    while !i + 8 <= stop do
      let w = word64 buf !i in
      let lo = !c lxor (Int64.to_int w land 0xFFFFFFFF)
      and hi = Int64.to_int (Int64.shift_right_logical w 32) in
      c :=
        tab 7 lo lxor tab 6 (lo lsr 8) lxor tab 5 (lo lsr 16)
        lxor tab 4 (lo lsr 24) lxor tab 3 hi lxor tab 2 (hi lsr 8)
        lxor tab 1 (hi lsr 16) lxor tab 0 (hi lsr 24);
      i := !i + 8
    done;
  for j = !i to stop - 1 do
    c := tab 0 (!c lxor Char.code (Bytes.unsafe_get buf j)) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let string ?crc s = bytes ?crc (Bytes.unsafe_of_string s) 0 (String.length s)

(* The scrub's twin kernel: the two adjacent [len]-byte lines at [off]
   and [off + len] are each compared with the line [twin] bytes on, a
   word at a time, and checksummed in the same pass.  The two CRC chains
   advance in lockstep, so the table lookups of one line overlap the
   other's instead of waiting on a single serial chain.  The pass stops
   at the first unequal word of either pair. *)
let twins buf ~off ~twin ~len crcs =
  if off < 0 || off + twin < 0 || len < 0 || len land 7 <> 0
     || off + (2 * len) > Bytes.length buf
     || off + twin + (2 * len) > Bytes.length buf
     || Array.length crcs < 2
  then invalid_arg "Crc32.twins: range outside buffer";
  let c0 = ref 0xFFFFFFFF and c1 = ref 0xFFFFFFFF in
  let i = ref off and stop = off + len in
  while !i < stop do
    let a = !i and b = !i + len in
    let w0 = word64 buf a and w1 = word64 buf b in
    if (w0 : int64) <> word64 buf (a + twin) || w1 <> word64 buf (b + twin)
    then i := max_int
    else begin
      let lo0 = !c0 lxor (Int64.to_int w0 land 0xFFFFFFFF)
      and hi0 = Int64.to_int (Int64.shift_right_logical w0 32)
      and lo1 = !c1 lxor (Int64.to_int w1 land 0xFFFFFFFF)
      and hi1 = Int64.to_int (Int64.shift_right_logical w1 32) in
      c0 :=
        tab 7 lo0 lxor tab 6 (lo0 lsr 8) lxor tab 5 (lo0 lsr 16)
        lxor tab 4 (lo0 lsr 24) lxor tab 3 hi0 lxor tab 2 (hi0 lsr 8)
        lxor tab 1 (hi0 lsr 16) lxor tab 0 (hi0 lsr 24);
      c1 :=
        tab 7 lo1 lxor tab 6 (lo1 lsr 8) lxor tab 5 (lo1 lsr 16)
        lxor tab 4 (lo1 lsr 24) lxor tab 3 hi1 lxor tab 2 (hi1 lsr 8)
        lxor tab 1 (hi1 lsr 16) lxor tab 0 (hi1 lsr 24);
      i := a + 8
    end
  done;
  if !i = max_int then -1
  else begin
    Array.unsafe_set crcs 0 (!c0 lxor 0xFFFFFFFF);
    Array.unsafe_set crcs 1 (!c1 lxor 0xFFFFFFFF);
    0
  end
