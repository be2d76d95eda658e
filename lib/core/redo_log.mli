(** Volatile redo log: modified (offset, length) ranges of the current
    transaction (§4.7).  Stored in DRAM, never persisted, bounded by a
    configurable entry capacity. *)

type t

(** Raised by {!add} when the entry capacity is exhausted — strictly
    before the range is recorded, so the log still covers exactly the
    stores already applied and the transaction can be rolled back.  A
    recoverable resource-exhaustion event, not a crash. *)
exception Overflow of { capacity : int }

val create : ?capacity:int -> unit -> t
val clear : t -> unit

(** Adjust the entry cap (takes effect on the next {!add}). *)
val set_capacity : t -> int -> unit

(** Record a modified range; 8-byte entries are deduplicated.  Raises
    {!Overflow} at capacity. *)
val add : t -> off:int -> len:int -> unit

val iter : t -> (off:int -> len:int -> unit) -> unit

(** Merge the logged ranges, in place, into maximal sorted intervals:
    after [coalesce], the entries are sorted by offset and pairwise
    neither overlapping nor adjacent, and cover exactly the union of the
    ranges added since the last {!clear}. *)
val coalesce : t -> unit
val entries : t -> int
val is_empty : t -> bool

(** Total bytes covered by the logged ranges (duplicates from blob stores
    counted as appended). *)
val bytes : t -> int
