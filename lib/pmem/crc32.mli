(** CRC-32 (IEEE) checksums for snapshot integrity. *)

(** [bytes ?crc buf off len] checksums a byte range.  Pass the result of a
    previous call as [crc] to checksum data incrementally. *)
val bytes : ?crc:int -> Bytes.t -> int -> int -> int

val string : ?crc:int -> string -> int

(** [twins buf ~off ~twin ~len crcs] checks two adjacent line pairs in one
    pass: the [len]-byte lines at [off] and [off + len] are compared with
    the lines [twin] bytes on, a word at a time, and checksummed as they
    go, the two CRC chains in lockstep.  When both pairs are byte-equal it
    stores [bytes buf off len] in [crcs.(0)] and [bytes buf (off + len)
    len] in [crcs.(1)] and returns 0; at the first unequal word it returns
    -1 and leaves [crcs] alone.  Allocates nothing.  [len] must be a
    multiple of 8; raises [Invalid_argument] when a line lies outside
    [buf] or [crcs] has fewer than two slots.  The twin scrub of
    {!Region} is its one caller. *)
val twins : Bytes.t -> off:int -> twin:int -> len:int -> int array -> int
