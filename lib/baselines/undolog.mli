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
    rollback itself may still raise [Pmem.Region.Media_error] if the log
    area is damaged. *)
val recover_salvage : t -> (int * string) list

(** Fault-campaign target range: the single used span. *)
val media_spans : t -> (int * int) list

(** Structural check of the persistent allocator. *)
val allocator_check : t -> (unit, string) result
