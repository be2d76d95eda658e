(** Synchronization models for the multi-thread throughput extrapolation:
    virtual threads run a closed loop of operations whose costs were
    measured from the real single-threaded code; each model reproduces
    the blocking/aggregation/abort semantics of one PTM family
    (DESIGN.md). *)

type costs = {
  read_ns : float;         (** one read-only transaction *)
  update_work_ns : float;  (** in-transaction cost of one update *)
  batch_fixed_ns : float;  (** per-transaction fixed cost (fences, sync) *)
  think_ns : float;        (** gap between operations of a thread *)
}

(** Multi-chunk payload element for {!Fc_sharded}: with probability
    [large_p] a cross-shard batch carries a large payload of [chunks]
    chunk transactions per participant, [chunk_tx_ns] each, beyond the
    uniform per-update work.  With [streamed] the chunks run as
    separate dependent combiner slots (the chunked PREPARE chain of the
    sharded store), so small updates on the same shard interleave
    between them; without it the whole payload occupies one monolithic
    combiner slot and every request queued behind it waits the payload
    out — the occupancy the streamed chain exists to break up. *)
type large_batch = {
  large_p : float;
  chunks : int;
  chunk_tx_ns : float;
  streamed : bool;
}

(** Background shard migration for {!Fc_sharded}: at
    [start_frac * duration] an online resize opens (one intent
    transaction through shard 0's combiner), then streams
    [move_batches] move batches — each one transaction on the source
    (shard 0) followed by one on the freshly-attached target (an extra
    combiner that takes no foreground traffic), [move_tx_ns] of payload
    work each — and closes with the epoch-flip transaction through
    shard 0.  The batches ride the ordinary combiner queues, so
    foreground operations on the source interleave with the stream and
    pay the occupancy: the resize-under-load throughput dip the shards
    bench measures. *)
type resize = {
  move_batches : int;
  move_tx_ns : float;
  start_frac : float;
}

(** How {!Fc_group}'s front-end acknowledges a submission.  [Ack_sync]
    is the per-transaction baseline: the submitter blocks and every
    logical transaction settles in its own engine round (every
    committer pays the full fence budget alone).  [Ack_batch_txs n]
    lets the submitter continue after enqueue and drains a queue once
    it holds [n] entries; [Ack_async] acknowledges at enqueue and
    drains only when the window fills. *)
type group_ack =
  | Ack_sync
  | Ack_batch_txs of int
  | Ack_async

type model =
  | Fc_crwwp
      (** flat combining + C-RW-WP writer-preference lock (Rom, RomL):
          one combiner executes the queued updates as a single durable
          batch; readers step aside for writers *)
  | Fc_left_right
      (** same single combiner, but readers never block; the writer
          drains readers on each of its two toggles (RomLR) *)
  | Fc_sharded of {
      shards : int;
      cross_p : float;
      intent_fixed_ns : float;
      large : large_batch option;
      resize : resize option;
    }
      (** [shards] independent {!Fc_crwwp} instances (Sharded_db): each
          operation routes to a uniformly random shard, so updates on
          different shards combine and commit concurrently.  With
          probability [cross_p] a writer runs a cross-shard batch
          instead: the two participants' mirror+apply transactions run
          concurrently, then one COMMIT flip rides the coordinator's
          combiner (the min participant), plus [intent_fixed_ns] of
          serialized protocol bookkeeping — CLEAR rides later protocol
          transactions at no extra slot; [large] optionally gives a
          fraction of those batches a multi-chunk payload (see
          {!large_batch}); [resize] optionally runs a background shard
          migration through the combiners (see {!resize}) *)
  | Fc_group of {
      shards : int;
      window : int;
      ack : group_ack;
      cross_p : float;
      intent_fixed_ns : float;
    }
      (** the async group-commit front-end over the sharded store
          (Group_commit): per-shard submission queues plus one
          cross-shard queue, each drained in windows of up to [window]
          logical transactions settled as one engine round —
          [batch_fixed_ns] (the fence sequence) is paid once per round,
          [update_work_ns] once per logical transaction.  A cross-queue
          round pays [intent_fixed_ns] plus two participant mirrors
          plus one coordinator flip for the whole merged group.
          Non-blocking submitters park when a queue reaches twice the
          window, bounding the queues.  [small_mean_ns]/[small_max_ns]
          track enqueue-to-durable completion latency of single-key
          updates — the latency cost of the deferred-ack modes. *)
  | Rw_reader_pref of { atomic_ns : float }
      (** plain reader-preference RW lock (the paper's PMDK setup).
          [atomic_ns] is the serialized cost of one RMW on the shared
          reader counter, which caps total read throughput near
          [1 / (2 * atomic_ns)] (every read arrives and departs);
          writers wait for a zero-reader instant and starve under many
          readers *)
  | Stm of {
      conflict_p : float;
      read_conflict_p : float;
      commit_serial_ns : float;
    }
      (** optimistic fine-grained STM (Mnemosyne/TinySTM): an update
          aborts with probability [1 - (1-conflict_p)^k] given [k]
          overlapping commits; the durable phase ([commit_serial_ns]) is
          serialized over the shared persistent log *)

type config = {
  model : model;
  costs : costs;
  readers : int;
  writers : int;
  duration_ns : float;
  seed : int;
}

type result = {
  reads_done : int;
  updates_done : int;
  elapsed_ns : float;
  small_mean_ns : float;
      (** mean single-key-update completion latency (submission to
          durable finish); tracked by {!Fc_sharded} and {!Fc_group}
          (entries of the per-shard queues), 0 for the other models *)
  small_max_ns : float;
      (** worst single-key-update completion latency — the tail the
          streamed-vs-monolithic large-batch ablation measures *)
}

val run : config -> result

val reads_per_sec : result -> float
val updates_per_sec : result -> float

(** Plausible defaults for tests. *)
val default_costs : costs
