(** Undo-log PTM in the style of PMDK's libpmemobj: old values are
    persisted to a write-ahead undo log before each first in-place store
    (2 fences per logged store), transactions retire the log at commit,
    and recovery applies the log backwards.  Concurrency: a global
    reader-preference reader-writer lock, as in the paper's evaluation
    setup for PMDK (§6.1).  The media scrub is detection-only
    ({!Single_copy}); a scrub inside a transaction raises
    [Invalid_argument].  [recover] rolls back any active log, and
    [heap_end] is where the log begins. *)

include Romulus.Recoverable.S

(** Raised when a transaction overflows the persistent undo log.  The
    transaction aborts cleanly (in-place stores undone from the entries
    logged so far) and the exception reaches the caller wrapped in
    [Romulus.Engine.Tx_aborted]. *)
exception Log_full
