(** Mnemosyne-like PTM: TinySTM/TL2-style optimistic concurrency with a
    persistent redo log written at commit (4 fences per update
    transaction, 64-byte log records, load interposition through the
    write set).  Conflicting transactions abort and re-execute their
    closure, so closures must be re-executable.  The media scrub is
    detection-only ({!Single_copy}); [recover] replays a committed log and
    resets the volatile STM state, and [heap_end] is where the log
    begins. *)

include Romulus.Recoverable.S

(** Raised when a transaction overflows the persistent redo log.  The
    transaction aborts cleanly (stripes released, buffered writes
    discarded) and the exception reaches the caller wrapped in
    [Romulus.Engine.Tx_aborted]; after {!Tinystm.Contention_exhausted}
    many consecutive conflict aborts the typed exhaustion error is
    raised raw instead of retrying forever. *)
exception Log_full

(** Aborts observed so far (indicative; racy under domains). *)
val aborts : t -> int

(** The underlying STM (test hook: lets a contention test pin a stripe
    lock from outside any transaction). *)
val stm : t -> Tinystm.t
