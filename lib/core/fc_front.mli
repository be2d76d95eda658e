(** The flat-combining concurrency front over the twin-copy engine, shared
    by the three Romulus variants.  Update transactions are published to
    a flat-combining queue; one combiner runs the whole batch inside ONE
    durable engine transaction and marks the requests done only after it
    committed.  Read-only transactions enter through the reader side of a
    sync module, which decides how readers and the combiner stay apart:

    - {!Crwwp_sync}: C-RW-WP (§5.2).  Readers take the scalable reader
      side and read main in place; the combiner holds the writer lock.
      Instantiated as {!Basic} (whole-span replication) and {!Logged}
      (volatile redo log).
    - Left-Right (§5.3), in {!Lr}: wait-free readers on the back copy
      through synthetic pointers.

    Nesting is per PTM module and per Domain ({!Nesting}): a transaction
    begun inside an update, or a read-only transaction begun inside a
    read-only one, flattens into it.  Each transaction fetches its
    Domain's nesting record once; a helped update request marks the
    record of the combiner's Domain, which runs it.  A store inside a
    read-only transaction raises {!Engine.Store_outside_transaction}
    unless that read-only transaction is itself nested in an update. *)

(** A PTM handle: the engine, the flat-combining queue and the sync
    module's reader/writer state. *)
type 'lock handle = {
  e : Engine.t;
  fc : Sync_prims.Flat_combining.t;
  lock : 'lock;
}

module type CONFIG = sig
  (** Replication mode of the engine. *)
  val mode : Engine.mode

  (** The PTM's short name, also the prefix of its failpoints. *)
  val name : string
end

(** A reader/writer synchronization scheme. *)
module type SYNC = sig
  include CONFIG

  type lock

  val create_lock : unit -> lock

  (** [arrive t] enters the calling thread's outermost read-only
      transaction and returns the token {!depart} takes. *)
  val arrive : lock handle -> int

  (** [depart t token] leaves it, also when the transaction raised. *)
  val depart : lock handle -> int -> unit

  (** [exec t run_batch] is the combiner's round: [run_batch] runs the
      batch's requests, all inside one durable engine transaction that
      [exec] begins, commits, or rolls back with {!Engine.abort_main}
      when a request (or a fault before the durability point) raises. *)
  val exec : lock handle -> (unit -> unit) -> unit

  (** The accessors a read-only transaction addresses its copy through;
      the front re-exports them unwrapped. *)
  val load : lock handle -> int -> int

  val load_bytes : lock handle -> int -> int -> string
  val compare_bytes : lock handle -> int -> int -> string -> int
  val get_root : lock handle -> int -> int

  (** Restore the volatile reader/writer state after recovery. *)
  val reset : lock handle -> unit
end

(** C-RW-WP.  [exec] holds the writer lock for the round and registers
    the failpoint ["<name>.combiner.batch_ran"]: the batch ran, its
    engine transaction has not begun committing. *)
module Crwwp_sync (_ : CONFIG) : SYNC with type lock = Sync_prims.Crwwp.t

module Make (S : SYNC) : sig
  include Recoverable.S

  (** The underlying twin-copy engine (tests/benchmarks). *)
  val engine : t -> Engine.t
end
