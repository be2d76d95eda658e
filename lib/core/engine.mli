(** Twin-copy persistence engine (Algorithm 1 + the volatile-log
    optimization of §4.7), single-writer.  The concurrency front-ends
    ({!Basic}, {!Logged}, {!Lr}) compose this with C-RW-WP/flat-combining
    or Left-Right. *)

type mode =
  | Full_copy  (** basic Romulus: replicate the whole used span at commit *)
  | Logged     (** RomulusLog: replicate only the logged ranges *)

exception Store_outside_transaction

(** Raised by {!get_root}/{!set_root} (and the front-ends' root
    accessors) for a slot index outside [0, Ptm_intf.root_slots). *)
exception Root_out_of_bounds of int

(** Raised when the persistent header fails validation on open or
    recovery: unrecognized magic, a state outside {IDL, MUT, CPY}, or an
    allocator frontier pointing outside its copy.  Recovery refuses to
    touch a region it cannot interpret. *)
exception Recovery_error of string

(** An update transaction whose closure (or pre-durability commit
    machinery) raised.  The transaction was rolled back — main restored
    from back, state republished as IDL, allocator and roots exactly as
    before the transaction — and the original exception is re-raised
    wrapped here.  [backtrace] is the raw backtrace string captured when
    the abort began (empty unless backtrace recording is on). *)
exception Tx_aborted of { cause : exn; backtrace : string }

(** [raise_abort cause backtrace] raises the typed abort of a transaction
    (or batch) that [cause] ended: a simulated crash
    ([Pmem.Region.Crash_point]) and an already-typed {!Tx_aborted}
    propagate as they are, anything else is wrapped in {!Tx_aborted}
    with [backtrace].  Every PTM and the sharded store's batches raise
    their aborts through it. *)
val raise_abort : exn -> string -> 'a

(** A scrub found a line whose sidecar CRC fails and that no twin can
    repair: both copies bad, an untwinned line (protocol header,
    single-copy baselines), or a protocol state that forbids trusting the
    surviving copy.  [state] is the protocol state the scrub ran under
    ("IDL"/"MUT"/"CPY"; "header" for header lines; the single-copy
    baselines report "none"). *)
exception Unrepairable of { offset : int; state : string }

type scrub_report = {
  scrubbed : int;  (** lines whose sidecar CRC the scrub verified *)
  repaired : int;  (** bad lines rewritten from their twin *)
  unrepairable : (int * string) list;
      (** salvage mode only ({!scrub_salvage}/{!recover_salvage}):
          ([offset], protocol state) of every line no twin could vouch
          for that was tolerated instead of raised.  Always [[]] from
          the raising entry points. *)
}

type t

(** Format a fresh (zeroed) region, or validate-and-recover an existing
    one (recognized by its magic number).  A region that is neither —
    nonzero but with an unrecognized magic — raises {!Recovery_error}
    rather than being silently reformatted.  Recovery runs in salvage
    mode: IDL-state data-loss lines (both twins rotten, nothing to copy)
    do not refuse the mount — they stay detectable by {!scrub} and raise
    [Media_error] when read — while damage that poisons a
    roll-forward/back still raises {!Unrepairable}. *)
val create : mode:mode -> Pmem.Region.t -> t

(** {!create}, also returning the ([offset], state) data-loss lines its
    salvage-mode recovery scrub tolerated ([[]] for a freshly formatted
    region).  Every other line that scrub visited was sound or repaired
    from its twin, so the list is the media verdict a second
    {!scrub_salvage} of the opened engine would return, without reading
    the medium again. *)
val open_salvage : mode:mode -> Pmem.Region.t -> t * (int * string) list

(** Re-run crash recovery (equivalent to re-opening the region after a
    simulated crash).  Recovery begins with a scrub pass: a rotten line in
    the truth copy is repaired from its twin (or refused as
    {!Unrepairable}) before roll-forward/back replicates anything over the
    good copy. *)
val recover : t -> unit

(** Walk the used spans of both twins, verify every clean line's sidecar
    CRC, and repair bad lines from their twin under the 3-state trust
    relation (IDL: either direction; MUT: back is truth, only main is
    repairable; CPY: main is truth, only back is repairable).  Repairs are
    ordinary persisted stores, instrumented by the [engine.scrub.bad_line]
    / [engine.scrub.repaired] failpoints.  Raises {!Unrepairable} on the
    first line no twin can vouch for, and [Invalid_argument] if called
    inside a transaction.  Also runs automatically at the head of
    {!recover}. *)
val scrub : t -> scrub_report

(** Like {!scrub}, but in salvage mode: under protocol state IDL —
    where recovery copies nothing, so an unrepairable line is pure data
    loss rather than a poisoned roll-forward source — bad lines no twin
    can vouch for are collected into [unrepairable] instead of raised.
    Lines recovery must trust stay fatal: a bad header line, or any
    unrepairable line under MUT/CPY, still raises {!Unrepairable}.
    Reads of a tolerated line keep surfacing [Pmem.Region.Media_error];
    nothing is silently blessed. *)
val scrub_salvage : t -> scrub_report

(** {!recover} with the salvage scrub at its head: returns the tolerated
    ([offset], state) data-loss lines (empty when the medium is sound).
    Raises {!Unrepairable} exactly when {!scrub_salvage} would — i.e.
    when the damage poisons a line recovery would have to copy. *)
val recover_salvage : t -> (int * string) list

(** Byte ranges ([offset], [length]) a media-fault campaign may target
    such that every injected fault is at least detectable by {!scrub}:
    the used spans of both twins. *)
val media_spans : t -> (int * int) list

val region : t -> Pmem.Region.t
val main_size : t -> int
val mode : t -> mode

(** Bound the volatile redo log's entry count (default
    [Redo_log.default_capacity]): an update transaction that exceeds it
    aborts with {!Tx_aborted} carrying {!Redo_log.Overflow}. *)
val set_redo_capacity : t -> int -> unit

(** End of main, read without a load: a back reader adds {!main_size}
    to an offset below it. *)
val heap_end : t -> int

(** Bytes of main in use (what a Full_copy commit replicates). *)
val used_span : t -> int

(** state <- MUT; pwb; pfence.  Does not nest. *)
val begin_tx : t -> unit

(** Flush deferred dirty-line write-backs (one pwb per line); pfence;
    state <- CPY; pwb; psync.  After this the transaction is ACID-durable
    on main. *)
val commit_main : t -> unit

(** Copy the modified span ([Full_copy]) or the redo log's coalesced
    ranges ([Logged]) from main to back; pwb per line; pfence. *)
val replicate : t -> unit

(** state <- IDL; leave the transaction. *)
val finish_tx : t -> unit

(** [commit_main] + [replicate] + [finish_tx] — at most 4 persistence
    fences per transaction including the one in [begin_tx]. *)
val end_tx : t -> unit

(** [abort_main t cause] rolls the in-flight update transaction back and
    never returns.  While state = MUT the abort is "free": back is the
    consistent copy, so main is restored from it (whole used span in
    [Full_copy], the logged ranges in [Logged]) and IDL is republished
    with the same fence discipline as recovery.  Re-raises [cause]
    wrapped in {!Tx_aborted} — except crashes ([Pmem.Region.Crash_point])
    and already-wrapped {!Tx_aborted}, which propagate raw, and an
    exception arriving after the CPY durability point, which rolls the
    commit *forward* (the transaction is durable; nothing aborts) and
    re-raises the cause unwrapped. *)
val abort_main : t -> exn -> 'a

val load : t -> int -> int

(** [load_off t delta off] loads through a synthetic pointer: [delta] is 0
    for main readers, [main_size t] for back readers (RomulusLR). *)
val load_off : t -> int -> int -> int

val load_bytes : t -> int -> int -> string
val load_bytes_off : t -> int -> int -> int -> string

(** [compare_bytes t off len s] is [String.compare (load_bytes t off len) s],
    computed in place ({!Pmem.Region.compare_bytes}); [compare_bytes_off]
    reads through a synthetic pointer, as [load_bytes_off]. *)
val compare_bytes : t -> int -> int -> string -> int

val compare_bytes_off : t -> int -> int -> int -> string -> int

(** Interposed store: log (in [Logged] mode) + in-place store + deferred
    dirty-line tracking, flushed by [commit_main].  Raises
    {!Store_outside_transaction} outside [begin_tx]/[end_tx]. *)
val store : t -> int -> int -> unit

val store_bytes : t -> int -> string -> unit
val alloc : t -> int -> int
val free : t -> int -> unit
val get_root : t -> int -> int
val get_root_off : t -> int -> int -> int
val set_root : t -> int -> int -> unit

(** Allocator structural check (tests). *)
val allocator_check : t -> (unit, string) result

val log_entries : t -> int
val in_tx : t -> bool
