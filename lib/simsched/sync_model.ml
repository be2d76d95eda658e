(* Synchronization models for the throughput extrapolation (DESIGN.md):
   virtual threads execute a closed loop of operations whose costs were
   measured from the real single-threaded code; each model reproduces the
   blocking/aggregation/abort semantics of one PTM family.

   - Fc_crwwp: flat combining + C-RW-WP writer-preference lock
     (Romulus, RomulusLog).  One combiner executes the whole queue of
     pending updates in a single durable transaction: batch cost =
     batch_fixed + B * update_work.  Readers step aside for writers.
   - Fc_left_right: same single combiner, but readers never block; the
     writer pays up to one read duration per toggle (twice per batch) to
     drain readers (RomulusLR).
   - Fc_sharded: N independent Fc_crwwp instances, one per hash shard
     of the sharded store.  Each operation routes to a uniformly random
     shard, so single-key updates on different shards combine and commit
     concurrently.  A cross-shard batch (probability cross_p) follows
     the store's commit protocol: the per-shard intent mirrors are
     written *concurrently* (each participant's mirror+apply is one
     ordinary transaction on its own shard), then one COMMIT flip rides
     the coordinator's combiner (the min participant) and the chain ends
     there — stale records are reclaimed inside later protocol
     transactions at no extra slot.  The chain carries a fixed cost
     (payload encoding, undo capture) and counts as one update.
   - Rw_reader_pref: a plain reader-preference RW lock, one transaction
     per lock acquisition (the paper's PMDK setup).  Writers wait for a
     moment with zero active readers, which becomes rarer as readers are
     added — the Figure 7 starvation.
   - Stm: optimistic fine-grained concurrency (Mnemosyne/TinySTM):
     no global lock; an update transaction aborts and retries with
     probability 1 - (1-conflict_p)^k where k is the number of commits
     that overlapped it (the shared-counter hash map has conflict_p = 1,
     which is Figure 5's collapse).

   Threads have a small think time between operations; without it a
   closed loop of readers would occupy a reader-preference lock
   permanently, when in reality writers slip in during the gaps. *)

type costs = {
  read_ns : float;         (* one read-only transaction *)
  update_work_ns : float;  (* in-transaction cost of one update *)
  batch_fixed_ns : float;  (* per-transaction fixed cost (fences, sync) *)
  think_ns : float;        (* gap between operations of a thread *)
}

type large_batch = {
  large_p : float;
  chunks : int;
  chunk_tx_ns : float;
  streamed : bool;
}

(* Background shard migration: an intent tx through shard 0, then
   [move_batches] dependent source-tx/target-tx pairs (the target is an
   extra combiner carrying no foreground traffic), then the epoch-flip
   tx through shard 0 — the move stream rides the ordinary combiner
   queues, so foreground load on the source pays the occupancy. *)
type resize = {
  move_batches : int;
  move_tx_ns : float;
  start_frac : float;
}

(* How the group-commit front-end acknowledges a submission (Fc_group).
   Ack_sync is the per-transaction baseline: the submitter blocks and
   every logical transaction is settled in its own engine round, so
   every committer pays the full fence budget alone — "today's"
   serving path.  Ack_batch_txs/Ack_async let the submitter continue
   after enqueue; the queue drains in windows, amortizing one fence
   sequence (and, on the cross queue, one shared intent record) over
   the whole group. *)
type group_ack =
  | Ack_sync
  | Ack_batch_txs of int
  | Ack_async

type model =
  | Fc_crwwp
  | Fc_left_right
  | Fc_sharded of {
      shards : int;
      cross_p : float;
      (** probability that a writer's operation is a cross-shard batch
          (two participating shards) rather than a single-key update *)
      intent_fixed_ns : float;
      (** serialized extra cost of the commit protocol's bookkeeping:
          payload encoding, undo capture, record management — measured
          by the bench calibration *)
      large : large_batch option;
      (** multi-chunk payload element: with probability [large_p] a
          cross-shard batch carries [chunks] chunk transactions per
          participant, [chunk_tx_ns] each.  [streamed] runs them as
          separate dependent combiner slots (the chunked PREPARE
          chain); otherwise the whole payload holds one monolithic
          combiner slot and everything queued behind it waits *)
      resize : resize option;
      (** background online shard migration through the combiners *)
    }
  | Fc_group of {
      shards : int;
      window : int;
      (** max logical transactions coalesced into one engine round *)
      ack : group_ack;
      cross_p : float;
      (** probability a submission is a cross-shard batch, routed to the
          shared cross queue instead of a per-shard queue *)
      intent_fixed_ns : float;
      (** serialized bookkeeping of one shared intent record (paid once
          per cross-queue drain, not once per merged batch) *)
    }
    (** the group-commit front-end over the sharded store: per-shard
        submission queues plus one cross-shard queue, each drained in
        windows of up to [window] logical transactions settled as one
        engine round — batch_fixed (the fence sequence) is paid per
        round, update_work per logical transaction.  A cross-queue
        round pays one mirror transaction per participant (modeled as
        two) and one coordinator flip for the whole merged group. *)
  | Rw_reader_pref of { atomic_ns : float }
    (** [atomic_ns]: serialized cost of one RMW on the lock's shared
        reader counter — the cache line bounces between cores, so total
        read throughput saturates near [1 / (2 * atomic_ns)] regardless
        of the thread count (every read does arrive + depart). *)
  | Stm of {
      conflict_p : float;
      read_conflict_p : float;
      commit_serial_ns : float;
      (** durable-commit section (log persist + write-back + fences),
          serialized over the shared persistent log *)
    }

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
  small_max_ns : float;
}

(* Uniform jitter in [0.5, 1.5) x base, mean-preserving: without it the
   identical per-op costs phase-lock every thread onto the same event
   instants, and e.g. a reader-preference lock spuriously admits writers
   at the synchronized all-readers-departed tick. *)
let jitter sim base = base *. (0.5 +. Des.random sim)

let reads_per_sec r = float_of_int r.reads_done /. (r.elapsed_ns *. 1e-9)
let updates_per_sec r = float_of_int r.updates_done /. (r.elapsed_ns *. 1e-9)
let ops_per_sec r =
  float_of_int (r.reads_done + r.updates_done) /. (r.elapsed_ns *. 1e-9)

(* ---- Flat combining + C-RW-WP / Left-Right ---- *)

let run_fc ~left_right cfg =
  let sim = Des.create ~seed:cfg.seed () in
  let c = cfg.costs in
  let reads_done = ref 0 and updates_done = ref 0 in
  (* lock state *)
  let combiner_active = ref false in
  let writer_pending = ref false in
  let readers_active = ref 0 in
  let pending_updates = Queue.create () in (* completion callbacks *)
  let waiting_readers = Queue.create () in
  let rec try_start_batch () =
    if (not !combiner_active) && not (Queue.is_empty pending_updates) then begin
      if left_right then start_batch ()
      else begin
        (* C-RW-WP: the writer first drains the readers *)
        writer_pending := true;
        if !readers_active = 0 then start_batch ()
        (* else: the last departing reader calls [reader_departed] *)
      end
    end
  and start_batch () =
    combiner_active := true;
    writer_pending := false;
    let batch = Queue.create () in
    Queue.transfer pending_updates batch;
    let b = float_of_int (Queue.length batch) in
    let drain =
      (* LR waits out the readers on each of its two toggles; readers all
         run for read_ns, so a full drain costs at most one read *)
      if left_right && !readers_active > 0 then 2. *. c.read_ns else 0.
    in
    let cost = c.batch_fixed_ns +. (b *. c.update_work_ns) +. drain in
    Des.schedule sim cost (fun () ->
        Queue.iter
          (fun finish ->
            incr updates_done;
            finish ())
          batch;
        combiner_active := false;
        (* release blocked readers *)
        Queue.iter (fun resume -> resume ()) waiting_readers;
        Queue.clear waiting_readers;
        try_start_batch ())
  and reader_departed () =
    readers_active := !readers_active - 1;
    if !readers_active = 0 && !writer_pending && not !combiner_active then
      start_batch ()
  in
  let rec reader_loop () =
    Des.schedule sim (jitter sim c.think_ns) (fun () ->
        if left_right then begin
          (* wait-free: never blocks *)
          readers_active := !readers_active + 1;
          Des.schedule sim c.read_ns (fun () ->
              incr reads_done;
              readers_active := !readers_active - 1;
              reader_loop ())
        end
        else if !combiner_active || !writer_pending then
          (* writer preference: stand aside until the writer releases *)
          Queue.add
            (fun () ->
              readers_active := !readers_active + 1;
              Des.schedule sim c.read_ns (fun () ->
                  incr reads_done;
                  reader_departed ();
                  reader_loop ()))
            waiting_readers
        else begin
          readers_active := !readers_active + 1;
          Des.schedule sim c.read_ns (fun () ->
              incr reads_done;
              reader_departed ();
              reader_loop ())
        end)
  in
  let rec writer_loop () =
    Des.schedule sim (jitter sim c.think_ns) (fun () ->
        Queue.add (fun () -> writer_loop ()) pending_updates;
        try_start_batch ())
  in
  for _ = 1 to cfg.readers do
    reader_loop ()
  done;
  for _ = 1 to cfg.writers do
    writer_loop ()
  done;
  Des.run sim ~until:cfg.duration_ns;
  { reads_done = !reads_done; updates_done = !updates_done;
    elapsed_ns = cfg.duration_ns; small_mean_ns = 0.; small_max_ns = 0. }

(* ---- sharded flat combining (Sharded_db) ---- *)

(* N independent Fc_crwwp instances.  Single-key operations route to a
   uniformly random shard and follow exactly the run_fc machinery, just
   per shard.  A cross-shard batch is a dependency graph of sub-requests,
   each riding the target shard's ordinary combining queue, plus
   [intent_fixed_ns] of serialized protocol bookkeeping (the graph is
   the commit protocol's, see the header).  The whole graph counts as
   one update. *)
let run_fc_sharded ~shards ~cross_p ~intent_fixed_ns ~large ~resize cfg =
  if shards < 1 then invalid_arg "Sync_model: shards < 1";
  let sim = Des.create ~seed:cfg.seed () in
  let c = cfg.costs in
  let reads_done = ref 0 and updates_done = ref 0 in
  (* single-key update completion latency (submission to durable finish):
     the figure the streamed-vs-monolithic large-batch ablation is about *)
  let small_n = ref 0 in
  let small_sum = ref 0. in
  let small_max = ref 0. in
  (* per-shard C-RW-WP + flat-combining state; a pending sub-request is
     (extra_ns, finish) — extra_ns is payload work beyond the uniform
     per-update cost (chunk streaming, monolithic payloads).  A resize
     adds one more station: the migration target's combiner, which takes
     no foreground traffic during the stream. *)
  let stations = shards + (match resize with Some _ -> 1 | None -> 0) in
  let combiner_active = Array.make stations false in
  let writer_pending = Array.make stations false in
  let readers_active = Array.make stations 0 in
  let pending = Array.init stations (fun _ -> Queue.create ()) in
  let waiting_readers = Array.init stations (fun _ -> Queue.create ()) in
  let rec try_start_batch s =
    if (not combiner_active.(s)) && not (Queue.is_empty pending.(s)) then begin
      writer_pending.(s) <- true;
      if readers_active.(s) = 0 then start_batch s
      (* else: the last departing reader calls [reader_departed] *)
    end
  and start_batch s =
    combiner_active.(s) <- true;
    writer_pending.(s) <- false;
    let batch = Queue.create () in
    Queue.transfer pending.(s) batch;
    let b = float_of_int (Queue.length batch) in
    let extra = Queue.fold (fun acc (e, _) -> acc +. e) 0. batch in
    let cost = c.batch_fixed_ns +. (b *. c.update_work_ns) +. extra in
    Des.schedule sim cost (fun () ->
        Queue.iter (fun (_, finish) -> finish ()) batch;
        combiner_active.(s) <- false;
        Queue.iter (fun resume -> resume ()) waiting_readers.(s);
        Queue.clear waiting_readers.(s);
        try_start_batch s)
  and reader_departed s =
    readers_active.(s) <- readers_active.(s) - 1;
    if readers_active.(s) = 0 && writer_pending.(s)
       && not combiner_active.(s)
    then start_batch s
  in
  (* enqueue one sub-request on shard [s]; [finish] runs when the shard's
     combiner has durably applied it *)
  let submit ?(extra = 0.) s finish =
    Queue.add (extra, finish) pending.(s);
    try_start_batch s
  in
  (* one participant's PREPARE when the batch carries a large payload:
     streamed — [chunks] dependent combiner slots, one chunk each, so
     other requests on the shard interleave between them (the last slot
     is the seal+apply); monolithic — the whole payload holds a single
     slot and everything queued behind it waits the payload out *)
  let prepare_large l s k =
    if l.streamed then begin
      let rec chain n =
        if n = 0 then k ()
        else submit ~extra:l.chunk_tx_ns s (fun () -> chain (n - 1))
      in
      chain l.chunks
    end
    else
      submit ~extra:(float_of_int l.chunks *. l.chunk_tx_ns) s (fun () ->
          k ())
  in
  let pick_shard () =
    min (shards - 1) (int_of_float (Des.random sim *. float_of_int shards))
  in
  let rec reader_loop () =
    Des.schedule sim (jitter sim c.think_ns) (fun () ->
        let s = pick_shard () in
        if combiner_active.(s) || writer_pending.(s) then
          (* writer preference: stand aside until the combiner releases *)
          Queue.add (fun () -> start_read s) waiting_readers.(s)
        else start_read s)
  and start_read s =
    readers_active.(s) <- readers_active.(s) + 1;
    Des.schedule sim c.read_ns (fun () ->
        incr reads_done;
        reader_departed s;
        reader_loop ())
  in
  let rec writer_loop () =
    Des.schedule sim (jitter sim c.think_ns) (fun () ->
        if shards > 1 && cross_p > 0. && Des.random sim < cross_p then begin
          (* cross-shard batch over two distinct shards *)
          let a = pick_shard () in
          let b =
            (a + 1
             + min (shards - 2)
                 (int_of_float (Des.random sim *. float_of_int (shards - 1))))
            mod shards
          in
          let finish () =
            Des.schedule sim intent_fixed_ns (fun () ->
                incr updates_done;
                writer_loop ())
          in
          (* the payload size is a property of the batch, not of one
             participant: decide once *)
          let batch_large =
            match large with
            | Some l when l.large_p > 0. && Des.random sim < l.large_p ->
              Some l
            | _ -> None
          in
          let coord = min a b in
          let prepare s k =
            match batch_large with
            | Some l -> prepare_large l s k
            | None -> submit s (fun () -> k ())
          in
          (* mirrors+applies run concurrently, one tx per participant (a
             chain of chunk transactions when the batch is large and
             streamed); the second to finish submits the COMMIT flip on
             the coordinator *)
          let left = ref 2 in
          let mirror_done () =
            decr left;
            if !left = 0 then submit coord finish
          in
          prepare a mirror_done;
          prepare b mirror_done
        end
        else begin
          let t0 = Des.now sim in
          submit (pick_shard ()) (fun () ->
              let lat = Des.now sim -. t0 in
              incr small_n;
              small_sum := !small_sum +. lat;
              if lat > !small_max then small_max := lat;
              incr updates_done;
              writer_loop ())
        end)
  in
  for _ = 1 to cfg.readers do
    reader_loop ()
  done;
  for _ = 1 to cfg.writers do
    writer_loop ()
  done;
  (* the background migration: intent on shard 0, a dependent chain of
     source-tx/target-tx move pairs (source is shard 0, the protocol
     anchor; the target is the extra station), and the epoch flip back
     through shard 0 — every slot queued like any other request, which
     is exactly why foreground throughput dips while the stream runs *)
  (match resize with
   | None -> ()
   | Some r ->
     if r.move_batches < 0 then invalid_arg "Sync_model: move_batches < 0";
     let tgt = shards in
     Des.schedule sim (r.start_frac *. cfg.duration_ns) (fun () ->
         submit 0 (fun () ->
             let rec move n =
               if n = 0 then submit 0 (fun () -> ())
               else
                 submit ~extra:r.move_tx_ns 0 (fun () ->
                     submit ~extra:r.move_tx_ns tgt (fun () ->
                         move (n - 1)))
             in
             move r.move_batches)));
  Des.run sim ~until:cfg.duration_ns;
  { reads_done = !reads_done; updates_done = !updates_done;
    elapsed_ns = cfg.duration_ns;
    small_mean_ns =
      (if !small_n = 0 then 0. else !small_sum /. float_of_int !small_n);
    small_max_ns = !small_max }

(* ---- group-commit front-end (Group_commit over Sharded_db) ---- *)

(* Per-shard submission queues plus one cross-shard queue, each drained
   in windows settled as one engine round.  Ack_sync pins the take size
   to 1 — the per-transaction baseline where every committer pays the
   fence budget alone and the submitter blocks until its own flip.
   Ack_batch_txs/Ack_async submitters continue after enqueue (the ack
   rides the watermark / is given at enqueue), so the queue reaches the
   drain threshold and one batch_fixed (fence sequence) amortizes over
   up to [window] logical transactions; a cross-queue round pays
   [intent_fixed_ns] plus two mirror transactions plus one coordinator
   flip for the whole merged group.  Non-blocking submitters park when
   a queue is at twice the window (the real layer's drain-on-full does
   the same work from the submitter's thread), which bounds the queue
   and keeps the loop closed. *)
let run_fc_group ~shards ~window ~ack ~cross_p ~intent_fixed_ns cfg =
  if shards < 1 then invalid_arg "Sync_model: shards < 1";
  if window < 1 then invalid_arg "Sync_model: window < 1";
  let sim = Des.create ~seed:cfg.seed () in
  let c = cfg.costs in
  let reads_done = ref 0 and updates_done = ref 0 in
  let small_n = ref 0 and small_sum = ref 0. and small_max = ref 0. in
  let stations = shards + 1 in
  let cross = shards in
  let take_sz, threshold =
    match ack with
    | Ack_sync -> (1, 1)
    | Ack_batch_txs n -> (window, max 1 (min n window))
    | Ack_async -> (window, window)
  in
  let cap = 2 * window in
  (* queue entry: (enqueue instant, completion continuation for a
     blocking submitter) *)
  let queued = Array.init stations (fun _ -> Queue.create ()) in
  let draining = Array.make stations false in
  let parked = Array.init stations (fun _ -> Queue.create ()) in
  let rec maybe_drain s =
    if (not draining.(s)) && Queue.length queued.(s) >= threshold then begin
      draining.(s) <- true;
      let k = min take_sz (Queue.length queued.(s)) in
      let batch = Array.init k (fun _ -> Queue.pop queued.(s)) in
      let kf = float_of_int k in
      let cost =
        if s = cross then
          (* one shared intent: two participant mirrors + one flip for
             the whole merged group, each slice's work per batch *)
          intent_fixed_ns +. (3. *. c.batch_fixed_ns)
          +. (kf *. 2. *. c.update_work_ns)
        else c.batch_fixed_ns +. (kf *. c.update_work_ns)
      in
      Des.schedule sim cost (fun () ->
          Array.iter
            (fun (t0, finish) ->
              incr updates_done;
              if s <> cross then begin
                let lat = Des.now sim -. t0 in
                incr small_n;
                small_sum := !small_sum +. lat;
                if lat > !small_max then small_max := lat
              end;
              match finish with Some resume -> resume () | None -> ())
            batch;
          draining.(s) <- false;
          let admitted = Queue.create () in
          Queue.transfer parked.(s) admitted;
          Queue.iter (fun resume -> resume ()) admitted;
          maybe_drain s)
    end
  in
  (* [blocking]: Ack_sync rides the entry's completion; the others
     resume right after enqueue, parking at the cap *)
  let rec submit s ~blocking resume =
    if (not blocking) && Queue.length queued.(s) >= cap then
      Queue.add (fun () -> submit s ~blocking resume) parked.(s)
    else begin
      Queue.add
        (Des.now sim, if blocking then Some resume else None)
        queued.(s);
      maybe_drain s;
      if not blocking then resume ()
    end
  in
  let pick_shard () =
    min (shards - 1) (int_of_float (Des.random sim *. float_of_int shards))
  in
  let blocking = ack = Ack_sync in
  let rec writer_loop () =
    Des.schedule sim (jitter sim c.think_ns) (fun () ->
        let s =
          if shards > 1 && cross_p > 0. && Des.random sim < cross_p then
            cross
          else pick_shard ()
        in
        submit s ~blocking writer_loop)
  in
  (* reads bypass the queues (the front-end is read-your-writes without
     forcing a drain), so a reader just pays the store's read cost *)
  let rec reader_loop () =
    Des.schedule sim (jitter sim c.think_ns) (fun () ->
        Des.schedule sim c.read_ns (fun () ->
            incr reads_done;
            reader_loop ()))
  in
  for _ = 1 to cfg.readers do
    reader_loop ()
  done;
  for _ = 1 to cfg.writers do
    writer_loop ()
  done;
  Des.run sim ~until:cfg.duration_ns;
  { reads_done = !reads_done; updates_done = !updates_done;
    elapsed_ns = cfg.duration_ns;
    small_mean_ns =
      (if !small_n = 0 then 0. else !small_sum /. float_of_int !small_n);
    small_max_ns = !small_max }

(* ---- reader-preference RW lock (PMDK setup) ---- *)

let run_rw_reader_pref ~atomic_ns cfg =
  let sim = Des.create ~seed:cfg.seed () in
  let c = cfg.costs in
  let reads_done = ref 0 and updates_done = ref 0 in
  let writer_holding = ref false in
  let readers_active = ref 0 in
  let waiting_writers = Queue.create () in
  let waiting_readers = Queue.create () in
  let update_cost = c.batch_fixed_ns +. c.update_work_ns in
  (* the shared reader counter: RMWs on its cache line serialize *)
  let counter_free = ref 0. in
  let counter_hop () =
    let start = max (Des.now sim) !counter_free in
    let finish = start +. atomic_ns in
    counter_free := finish;
    finish -. Des.now sim
  in
  let rec maybe_admit_writer () =
    (* a writer may proceed only at an instant with no active readers and
       no writer holding; merely-waiting writers do not block readers *)
    if (not !writer_holding) && !readers_active = 0
       && not (Queue.is_empty waiting_writers)
    then begin
      writer_holding := true;
      let finish = Queue.take waiting_writers in
      Des.schedule sim update_cost (fun () ->
          incr updates_done;
          writer_holding := false;
          (* release: admit everyone who queued behind the writer *)
          let rs = Queue.copy waiting_readers in
          Queue.clear waiting_readers;
          Queue.iter (fun resume -> resume ()) rs;
          maybe_admit_writer ();
          finish ())
    end
  in
  let rec reader_loop () =
    Des.schedule sim (jitter sim c.think_ns) (fun () ->
        if !writer_holding then
          Queue.add (fun () -> start_read ()) waiting_readers
        else start_read ())
  and start_read () =
    (* reader preference: the reader counts as arrived immediately (so a
       pack of readers released together blocks the next writer), then
       pays the serialized arrive RMW, the read, and the depart RMW *)
    readers_active := !readers_active + 1;
    Des.schedule sim (counter_hop ()) (fun () ->
        Des.schedule sim c.read_ns (fun () ->
            Des.schedule sim (counter_hop ()) (fun () ->
                incr reads_done;
                readers_active := !readers_active - 1;
                maybe_admit_writer ();
                reader_loop ())))
  in
  let rec writer_loop () =
    Des.schedule sim (jitter sim c.think_ns) (fun () ->
        Queue.add (fun () -> writer_loop ()) waiting_writers;
        maybe_admit_writer ())
  in
  for _ = 1 to cfg.readers do
    reader_loop ()
  done;
  for _ = 1 to cfg.writers do
    writer_loop ()
  done;
  Des.run sim ~until:cfg.duration_ns;
  { reads_done = !reads_done; updates_done = !updates_done;
    elapsed_ns = cfg.duration_ns; small_mean_ns = 0.; small_max_ns = 0. }

(* ---- optimistic STM (Mnemosyne setup) ---- *)

let run_stm ~conflict_p ~read_conflict_p ~commit_serial_ns cfg =
  let sim = Des.create ~seed:cfg.seed () in
  let c = cfg.costs in
  let reads_done = ref 0 and updates_done = ref 0 in
  let commit_count = ref 0 in
  let update_cost =
    max 0. (c.batch_fixed_ns +. c.update_work_ns -. commit_serial_ns)
  in
  (* the durable phase persists the redo log: serialized across threads *)
  let commit_free = ref 0. in
  let commit_slot () =
    let start = max (Des.now sim) !commit_free in
    let finish = start +. commit_serial_ns in
    commit_free := finish;
    finish -. Des.now sim
  in
  let abort_probability p started =
    let overlapping = !commit_count - started in
    if overlapping <= 0 || p <= 0. then 0.
    else 1. -. ((1. -. p) ** float_of_int overlapping)
  in
  let rec reader_loop attempt =
    let delay =
      if attempt = 0 then c.think_ns
      else c.think_ns *. float_of_int (min attempt 8)
    in
    Des.schedule sim (jitter sim delay) (fun () ->
        let started = !commit_count in
        Des.schedule sim c.read_ns (fun () ->
            if Des.random sim < abort_probability read_conflict_p started
            then reader_loop (attempt + 1)
            else begin
              incr reads_done;
              reader_loop 0
            end))
  in
  let rec writer_loop attempt =
    let delay =
      if attempt = 0 then c.think_ns
      else c.think_ns *. float_of_int (min attempt 8)
    in
    Des.schedule sim (jitter sim delay) (fun () ->
        let started = !commit_count in
        Des.schedule sim update_cost (fun () ->
            if Des.random sim < abort_probability conflict_p started then
              writer_loop (attempt + 1)
            else
              (* survived validation: enter the serialized durable phase *)
              Des.schedule sim (commit_slot ()) (fun () ->
                  incr commit_count;
                  incr updates_done;
                  writer_loop 0)))
  in
  for _ = 1 to cfg.readers do
    reader_loop 0
  done;
  for _ = 1 to cfg.writers do
    writer_loop 0
  done;
  Des.run sim ~until:cfg.duration_ns;
  { reads_done = !reads_done; updates_done = !updates_done;
    elapsed_ns = cfg.duration_ns; small_mean_ns = 0.; small_max_ns = 0. }

let run cfg =
  match cfg.model with
  | Fc_crwwp -> run_fc ~left_right:false cfg
  | Fc_left_right -> run_fc ~left_right:true cfg
  | Fc_sharded { shards; cross_p; intent_fixed_ns; large; resize } ->
    run_fc_sharded ~shards ~cross_p ~intent_fixed_ns ~large ~resize cfg
  | Fc_group { shards; window; ack; cross_p; intent_fixed_ns } ->
    run_fc_group ~shards ~window ~ack ~cross_p ~intent_fixed_ns
      cfg
  | Rw_reader_pref { atomic_ns } -> run_rw_reader_pref ~atomic_ns cfg
  | Stm { conflict_p; read_conflict_p; commit_serial_ns } ->
    run_stm ~conflict_p ~read_conflict_p ~commit_serial_ns cfg

let default_costs =
  { read_ns = 300.; update_work_ns = 600.; batch_fixed_ns = 400.;
    think_ns = 30. }
