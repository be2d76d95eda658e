(** TinySTM/TL2-style STM mechanics: a global version clock and striped
    versioned write-locks.  {!Redolog} composes this with a persistent
    redo log the way Mnemosyne composes TinySTM with its durable log. *)

(** Raised (internally) to abort and retry a transaction. *)
exception Abort

(** Raised by the STM-based PTMs after a bounded number of consecutive
    conflict aborts (with exponential backoff and jitter between
    attempts): a typed, recoverable contention-livelock signal.  The
    transaction's buffered effects are discarded; the caller may simply
    retry. *)
exception Contention_exhausted of { attempts : int }

type t

(** A clock and a lock table for the region [r]: one stripe per cache
    line of [r] (rounded up to a power of two), at most 2{^16}. *)
val create : Pmem.Region.t -> t

(** Stripe index for a word address. *)
val stripe : t -> int -> int

(** Current global version. *)
val now : t -> int

(** Atomically advance the clock; returns the new version. *)
val next_version : t -> int

(** Raw lock word of a stripe. *)
val read_word : t -> int -> int

val is_locked : int -> bool
val version : int -> int

(** Try to lock a stripe; [Some prev_version] on success. *)
val try_acquire : t -> int -> int option

(** Release a stripe, publishing a new version. *)
val release : t -> int -> ver:int -> unit

(** Release a stripe without changing its version (abort path). *)
val release_unchanged : t -> int -> prev_version:int -> unit

val record_abort : t -> unit
val aborts : t -> int

(** Forget all volatile state (simulated process restart). *)
val reset : t -> unit
