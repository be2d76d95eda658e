(** Mnemosyne-like PTM: TinySTM/TL2-style optimistic concurrency with a
    persistent redo log written at commit (4 fences per update
    transaction, 64-byte log records, load interposition through the
    write set).  Conflicting transactions abort and re-execute their
    closure, so closures must be re-executable. *)

include Romulus.Ptm_intf.S

(** Raised when a transaction overflows the persistent redo log.  The
    transaction aborts cleanly (stripes released, buffered writes
    discarded) and the exception reaches the caller wrapped in
    [Romulus.Engine.Tx_aborted]; after {!Tinystm.Contention_exhausted}
    many consecutive conflict aborts the typed exhaustion error is
    raised raw instead of retrying forever. *)
exception Log_full

(** Re-run crash recovery (replay a committed log, reset volatile STM
    state). *)
val recover : t -> unit

(** Detection-only media scrub: verify per-line sidecar CRCs over the
    used span.  No twin copy exists, so any CRC miss raises
    [Romulus.Engine.Unrepairable] with state ["none"].  *)
val scrub : t -> Romulus.Engine.scrub_report

(** Salvage-mode scrub: collect every CRC miss (offset, ["none"]) into
    [unrepairable] instead of raising on the first.  Reads of a lost
    line still raise [Pmem.Region.Media_error]. *)
val scrub_salvage : t -> Romulus.Engine.scrub_report

(** [open_region] followed by {!scrub_salvage}: the opened store and
    its tolerated data-loss lines. *)
val open_salvage : Pmem.Region.t -> t * (int * string) list

(** Salvage scrub followed by {!recover}; returns the lost lines.  The
    replay itself may still raise [Pmem.Region.Media_error] if the log
    area is damaged. *)
val recover_salvage : t -> (int * string) list

(** Fault-campaign target range: the single used span. *)
val media_spans : t -> (int * int) list

(** Structural check of the persistent allocator. *)
val allocator_check : t -> (unit, string) result

(** Aborts observed so far (indicative; racy under domains). *)
val aborts : t -> int

(** The underlying STM (test hook: lets a contention test pin a stripe
    lock from outside any transaction). *)
val stm : t -> Tinystm.t
