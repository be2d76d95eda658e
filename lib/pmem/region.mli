(** Simulated byte-addressable persistent memory with a cache-line model.

    The region keeps a volatile image (what the running program reads and
    writes) and a persistent image (what survives a crash).  Stores dirty
    cache lines; {!pwb} marks a line for write-back; {!pfence}/{!psync}
    make all pending write-backs durable.  {!crash} resolves the fate of
    every non-persisted line under an adversarial policy and restarts from
    the persistent image. *)

type policy =
  | Drop_all                (** no un-fenced line reaches the medium *)
  | Keep_all                (** every dirty/pending line reaches the medium *)
  | Random_subset of int    (** each line persists or not, per-seed
                                deterministic; dirty lines model arbitrary
                                cache evictions *)
  | Torn_words of int       (** each aligned 8-byte word of a non-persisted
                                line independently keeps its old persistent
                                value or takes the volatile one, per-seed
                                deterministic — the ADR guarantee is 8-byte
                                atomicity, not line atomicity *)

(** Raised by the primitive armed with {!set_trap}, before it executes. *)
exception Crash_point

(** Raised by {!load_from_file} when a snapshot fails validation (bad
    magic, unsupported version, impossible geometry, truncation, or a
    payload/sidecar checksum mismatch).  A corrupt snapshot is never
    partially loaded. *)
exception Snapshot_corrupt of string

(** Raised by a load that touches a clean line whose persistent content no
    longer matches its per-line CRC-32 sidecar entry: silent media
    corruption, detected.  [offset] is the faulting load's byte offset,
    [line] the bad cache line's index.  Only armed regions check (one of
    the [corrupt_*] / {!inject_rot} injectors ran, or a loaded snapshot
    carried a fault); pristine regions pay nothing on loads. *)
exception Media_error of { offset : int; line : int }

(** Media-fault injection policy: each line of the targeted range rots
    independently with probability [rate], deterministically per [seed];
    a rotten line takes a burst of 1-3 bit flips. *)
type rot = Media_rot of { seed : int; rate : float }

type t

(** [create ~size ()] allocates a region of at least [size] bytes (rounded
    up to a whole number of cache lines), zero-filled and fully
    persistent. *)
val create : ?line_size:int -> ?fence:Fence.profile -> size:int -> unit -> t

val size : t -> int
val line_size : t -> int
val stats : t -> Stats.t

(** Arm the crash trap: the [k]-th subsequent persistence-relevant
    primitive (store / pwb / pfence / psync / copy) raises {!Crash_point}
    before executing.  [k = 0] fires on the next primitive.  Once the trap
    fires the region is dead: every further primitive (including loads)
    keeps raising {!Crash_point} until {!crash} resolves the failure, so
    code that swallows the exception cannot keep running. *)
val set_trap : t -> int -> unit

val clear_trap : t -> unit

(** True between the trap firing and {!crash}: the machine is off. *)
val is_dead : t -> bool

(** Power off immediately (used by armed failpoints): the region becomes
    dead as if a trap had fired, and {!Crash_point} is raised.  Never
    returns. *)
val kill : t -> 'a

(** 8-byte word load/store at a byte offset (offsets need not be aligned,
    but all library code uses 8-byte alignment). *)
val load : t -> int -> int

val store : t -> int -> int -> unit

val load_bytes : t -> int -> int -> string

(** [compare_bytes t off len s] is [String.compare (load_bytes t off len) s]
    (so -1, 0 or 1), computed in place: nothing is copied or allocated.
    It raises as that [load_bytes] would — {!Crash_point} on a dead
    region, [Invalid_argument] on a bad range, {!Media_error} on a rotten
    clean line, in that order — and counts one load of [len] bytes in
    {!stats}, as that [load_bytes] does. *)
val compare_bytes : t -> int -> int -> string -> int

val store_bytes : t -> int -> string -> unit

(** Region-internal volatile copy; destination lines become dirty and must
    be pwb'ed by the caller (this is how the twin-copy replication is
    built). *)
val copy : t -> src:int -> dst:int -> len:int -> unit

(** Initiate write-back of the line containing the given byte offset. *)
val pwb : t -> int -> unit

(** [pwb_range t off len] issues one pwb per line overlapping the range. *)
val pwb_range : t -> int -> int -> unit

val pfence : t -> unit
val psync : t -> unit

(** Simulate a power failure under the given policy and restart: the
    volatile image is replaced by the persistent image. *)
val crash : t -> policy -> unit

(** Number of lines whose volatile and persistent copies may differ. *)
val unpersisted_lines : t -> int

(** Test-only: a copy of the whole persistent image, for byte-identical
    comparisons (e.g. recovery idempotence). *)
val persistent_snapshot : t -> string

(** {2 Media faults}

    The region keeps a per-line CRC-32 sidecar of the persistent image,
    maintained incrementally on write-back.  The injectors below garble
    the *persistent* bytes of a line while leaving its sidecar entry
    witnessing the pre-rot content, then arm CRC verification on loads:
    the next load of an affected clean line raises {!Media_error}.  A
    degraded line is healed by a full-line write-back (or a scrub repair);
    a torn, partial write-back cannot heal it. *)

(** Garble every word of line [line] deterministically per [seed]. *)
val corrupt_line : ?seed:int -> t -> line:int -> unit

(** Flip [flips] seeded bit positions within [off, off+len). *)
val corrupt_bits : t -> seed:int -> off:int -> len:int -> flips:int -> unit

(** Apply a {!rot} policy to the persisted lines overlapping
    [off, off+len) (default: the whole region); returns the number of
    lines degraded. *)
val inject_rot : ?off:int -> ?len:int -> t -> rot -> int

(** Does line [line]'s persistent content still match its sidecar CRC?
    Scrubbers call this directly; unlike a load it never raises. *)
val media_ok : t -> line:int -> bool

(** True when [line] has no un-persisted store in flight, i.e. its
    persistent copy is authoritative and eligible for scrubbing. *)
val line_is_clean : t -> line:int -> bool

(** [scan_pairs t ~first ~last ~twin] scrubs the line pairs
    [(l, l + twin)] for [l] in [[first, last]] and stops at the first
    pair with a bad line, a clean line that fails {!media_ok}.  It
    returns [(l lsl 2) lor v] for that pair, where bit 0 of [v] is [l]'s
    verdict and bit 1 is [l + twin]'s, or [(last + 1) lsl 2] when every
    pair is sound.  Verdicts, and sidecar entries refreshed on the way,
    are exactly those of {!media_ok} on each clean line in turn; twin
    lines whose bytes agree share one CRC, which is exact because a CRC
    is a function of the bytes.  With [twin = 0] it scrubs the single
    span [[first, last]], and a bad line reads [v = 3].  Allocates
    nothing.  Raises [Invalid_argument] for a line outside the region. *)
val scan_pairs : t -> first:int -> last:int -> twin:int -> int

(** True once any media fault was injected (or restored from a snapshot):
    loads verify sidecar CRCs. *)
val media_faults_armed : t -> bool

(** Write the persistent image to a file: equivalent to a clean shutdown.
    Unfenced volatile state is (correctly) not included.  The snapshot
    carries a versioned header (magic, format version, line size, length),
    a CRC-32 over the payload, and the per-line sidecar with its own
    CRC-32 — so a detected-but-unrepaired media fault survives the round
    trip instead of being blessed by the save. *)
val save_to_file : t -> string -> unit

(** Restore a region from a file written by {!save_to_file} — a restart:
    the volatile image starts as a copy of the persistent one.  The PTM's
    [open_region] then runs recovery as usual.  Raises {!Snapshot_corrupt}
    if the file fails any header or checksum validation. *)
val load_from_file : ?fence:Fence.profile -> string -> t

(** Conventional file name for one region of a multi-region (sharded)
    store saved under [base]: ["<base>.shard<k>"].  Shards save and load
    their regions under this name so that a store's snapshot is a
    predictable file family rather than an ad-hoc naming scheme per
    caller.  Raises [Invalid_argument] on a negative shard index. *)
val shard_snapshot_path : string -> shard:int -> string
