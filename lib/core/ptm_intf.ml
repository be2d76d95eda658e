(** The persistent-transactional-memory interface.

    All persistent data lives in a {!Pmem.Region.t}; persistent "pointers"
    are byte offsets into the region (0 is never a valid object offset, so
    it serves as null).  Data-structure code is written as functors over
    this signature and runs unchanged on every PTM in the repository
    (the three Romulus variants and the undo-log / redo-log baselines),
    which is how the paper's cross-PTM benchmarks are expressed. *)

module type S = sig
  type t

  (** Short name used in benchmark output ("rom", "romL", "romLR", ...). *)
  val name : string

  (** Open a region: formats it on first use, otherwise runs recovery.
      The result is ready for transactions. *)
  val open_region : Pmem.Region.t -> t

  val region : t -> Pmem.Region.t

  (** Run a read-only transaction.  Read-only transactions never write to
      persistent memory; attempting to [store] inside one raises
      [Engine.Store_outside_transaction] (and the read ingress — read
      indicator, Left-Right arrival — is still departed when the closure
      raises).  An [update_tx] inside a [read_tx] of the same handle
      raises [Engine.Store_outside_transaction] too, and commits nothing.
      The documented exception is romSeq ([Seq_front]): its [read_tx] is
      plain single-threaded code, so an [update_tx] there runs and
      commits as if no read transaction were open. *)
  val read_tx : t -> (unit -> 'a) -> 'a

  (** Run an update transaction, durably: when [update_tx] returns, the
      transaction's effects survive any subsequent crash.  When the
      closure (or the pre-durability commit machinery) raises, the
      transaction aborts — every persistent effect, including allocator
      metadata, is rolled back — and the exception is re-raised wrapped
      in [Engine.Tx_aborted] (simulated crashes propagate raw).  The
      lock-free baseline (Mnemosyne-like) may additionally re-execute
      the closure on conflict, so closures should not perform
      non-idempotent volatile side effects. *)
  val update_tx : t -> (unit -> 'a) -> 'a

  (** Load the word at a byte offset (inside a transaction). *)
  val load : t -> int -> int

  (** Store a word (update transactions only). *)
  val store : t -> int -> int -> unit

  val load_bytes : t -> int -> int -> string

  (** [compare_bytes t off len s] is
      [String.compare (load_bytes t off len) s] without copying the
      stored bytes: it raises, and counts as a load, exactly as that
      [load_bytes] would.  Codecs compare stored keys through it. *)
  val compare_bytes : t -> int -> int -> string -> int

  val store_bytes : t -> int -> string -> unit

  (** Allocate [n] payload bytes from the persistent allocator; part of the
      enclosing transaction (rolled back if the transaction does not
      commit).  The payload is not zeroed. *)
  val alloc : t -> int -> int

  val free : t -> int -> unit

  (** Root pointers ("objects array"): the named entry points from which
      all persistent data must be reachable after a restart. *)
  val get_root : t -> int -> int

  val set_root : t -> int -> int -> unit
end

(** Number of root-pointer slots every PTM provides. *)
let root_slots = 64
