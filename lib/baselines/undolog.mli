(** Undo-log PTM in the style of PMDK's libpmemobj: old values are
    persisted to a write-ahead undo log before each first in-place store
    (2 fences per logged store), transactions retire the log at commit,
    and recovery applies the log backwards.  Concurrency: a global
    reader-preference reader-writer lock, as in the paper's evaluation
    setup for PMDK (§6.1). *)

include Romulus.Ptm_intf.S

(** Raised when a transaction overflows the persistent undo log.  The
    transaction aborts cleanly (in-place stores undone from the entries
    logged so far) and the exception reaches the caller wrapped in
    [Romulus.Engine.Tx_aborted]. *)
exception Log_full

(** Re-run crash recovery (roll back any active log). *)
val recover : t -> unit

(** The detection-only media scrub ({!Single_copy.S}); a scrub inside a
    transaction raises [Invalid_argument]. *)
include Single_copy.S with type t := t

(** End of the allocator arena, where the log begins. *)
val heap_end : t -> int

(** Structural check of the persistent allocator. *)
val allocator_check : t -> (unit, string) result
