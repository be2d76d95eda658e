(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-driven.
   Used to checksum region snapshot files: the persistence layer must
   detect media corruption (bit flips, truncation) instead of silently
   loading garbage into a "recovered" region. *)

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

(* The table is forced once per call and indexed unchecked: the index is
   masked to 8 bits and the table has 256 entries. *)
let bytes ?(crc = 0) buf off len =
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    invalid_arg "Crc32.bytes: range outside buffer";
  let t = Lazy.force table in
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = off to off + len - 1 do
    c :=
      Array.unsafe_get t ((!c lxor Char.code (Bytes.unsafe_get buf i)) land 0xff)
      lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let string ?crc s = bytes ?crc (Bytes.unsafe_of_string s) 0 (String.length s)
