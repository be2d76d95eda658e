(** Async group-commit front-end for {!Sharded_db}.

    Romulus's commit cost is dominated by the per-transaction fence
    sequence, and a cross-shard batch additionally pays its own intent
    record.  This layer sits in front of a sharded store and coalesces:
    clients enqueue logical operations (puts, deletes, whole
    [write_batch] closures) into per-shard submission queues plus one
    dedicated cross-shard queue; a per-queue combiner drains a bounded
    window and settles the whole window as {e one} engine transaction —
    hence one fence sequence — for a single-shard window, or {e one}
    shared decentralized intent record (one mirror per participant
    shard, one coordinator flip, amortized across every merged batch)
    for a cross-shard window.

    The windowed retry protocol is exactly the flat-combining per-round
    raiser rule ({!Sync_prims.Flat_combining.run_rounds}) lifted to
    nested logical transactions: a logical tx that raises inside a
    coalesced engine transaction is answered alone with its exception
    and the survivors retry as a new group, so one poisonous request
    never poisons its window.

    {2 Durability watermark and ack modes}

    Each queue carries a monotone durability watermark: entries are
    assigned consecutive sequence numbers at enqueue, a drain settles
    the oldest [<= window] entries and advances the watermark past
    them, so the settled set is always a prefix of submission order —
    after a crash the surviving writes of a queue are a clean prefix,
    never a torn suffix.  Acknowledgement rides the watermark in three
    modes, mirroring the LevelDB baseline's buffered durability
    ({!Level_db}: [put ?sync] / [create ?sync_every_bytes]):

    - [Sync] — like [put ~sync:true]: the call drains its queue and
      returns (or raises) only once its own entry is settled; an acked
      write is durable and survives any crash.
    - [Batch_sync { txs; bytes }] — like [sync_every_bytes]: the call
      returns at enqueue, and the queue drains itself whenever it holds
      [txs] entries or [bytes] estimated payload bytes (or the window
      fills); acknowledgement advances only with the watermark, so the
      un-acked loss window after a crash is bounded by the thresholds.
    - [Async] — like [put ~sync:false]: acknowledged at enqueue
      ([Async_acks] counts the lie), drained when the window fills or
      on an explicit {!Make.flush}.

    {2 Ordering between queues}

    A cross-shard closure's key set is unknown until it runs, so the
    cross queue acts as a sequencing barrier: enqueuing a cross-shard
    batch first drains every shard queue, and enqueuing a single-key
    operation (or reading) while the cross queue is non-empty first
    drains the cross queue.  Consequently at most one side ever holds
    entries, dependent operations never commute, and consecutive
    cross-shard batches — the burst the shared-intent path targets —
    still coalesce.  Reads are read-your-writes: a {!Make.get} consults
    the key's queued operations (newest first) before the store. *)

(** How acknowledgement rides the durability watermark (see above). *)
type ack_mode =
  | Sync
  | Batch_sync of { txs : int; bytes : int }
  | Async

(** The front-end's own counters, one set per {!Make.attach}ed front-end
    (see {!Counter_set} for their lifetime).  {!Counters.table} gives
    each one's printed name and meaning. *)
type counter =
  | Group_commits
  | Group_size_sum
  | Group_size_max
  | Fences_saved
  | Merged_intents
  | Async_acks
  | Flushes

module Counters : Counter_set.S with type counter = counter

module Make (P : Sharded_db.SHARD_PTM) : sig
  type t

  (** The underlying store's handle type. *)
  type db = Sharded_db.Make(P).t

  (** Attach a front-end to an open store.  [window] bounds the number
      of logical transactions coalesced per engine round (default
      32); [ack] defaults to [Sync], which — with an
      empty backlog — behaves exactly like the bare store, one fence
      sequence per transaction. *)
  val attach : ?window:int -> ?ack:ack_mode -> db -> t

  val db : t -> db

  (** This front-end's counters (live: take {!Counters.snapshot} to keep
      a value). *)
  val counters : t -> Counters.t

  val ack_mode : t -> ack_mode
  val window : t -> int

  (** Enqueue a put/delete on the key's shard queue.  [Sync] mode
      settles it before returning (raising its own failure, e.g.
      [Shard_unavailable]); the other modes return at enqueue and
      surface failures through {!flush}/{!failures}.  [delete] does not
      report presence — that answer does not exist at enqueue time. *)
  val put : t -> string -> string -> unit

  val delete : t -> string -> unit

  (** Read-your-writes get: drains the cross queue if non-empty, then
      answers from the key's queued operations (newest first) without
      forcing a drain, then from the store. *)
  val get : t -> string -> string option

  (** Enqueue a whole logical transaction (buffered exactly as
      {!Sharded_db.Make.write_batch}).  Closures drained in the same
      window run against one shared batch handle: one engine
      transaction if the merged key set stays on one shard, one shared
      intent record otherwise. *)
  val write_batch : t -> (db -> unit) -> unit

  (** Drain every queue (cross queue first) until empty, then re-raise
      the first deferred failure, if any (clearing the deferred list).
      The post-state is that of the bare store: watermark = submitted
      on every queue. *)
  val flush : t -> unit

  (** Deferred failures of [Batch_sync]/[Async] entries — [(queue,
      seq, exn)] in settle order — not yet surfaced by {!flush}. *)
  val failures : t -> (int * int * exn) list

  (** {2 Watermark observation} (for tests and benchmarks)

      Queues are indexed [0 .. shards-1] for the per-shard queues and
      [shards] for the cross-shard queue. *)

  val queues : t -> int

  (** Sequence numbers assigned so far on a queue (next seq to issue). *)
  val submitted : t -> int -> int

  (** Durability watermark: every entry with [seq < watermark] is
      settled (committed or answered with its failure).  Monotone;
      advances only in submission order. *)
  val watermark : t -> int -> int

  (** Acknowledgement mark: every entry with [seq < acked] has been
      acknowledged to its caller.  [Sync]/[Batch_sync]: equals the
      watermark (ack at flip / when the watermark passes the group);
      [Async]: equals [submitted] (ack at enqueue). *)
  val acked : t -> int -> int

  (** Total entries currently queued across all queues. *)
  val pending : t -> int
end

(** Front-end over the paper's default PTM, matching
    {!Sharded_db.Default}. *)
module Default : module type of Make (Romulus.Logged)
