(* Synchronization models for the throughput extrapolation (DESIGN.md):
   virtual threads execute a closed loop of operations ([simulate])
   whose costs were measured from the real single-threaded code; each
   model reproduces the blocking/aggregation/abort semantics of one PTM
   family.  sync_model.mli documents each model's parameters.

   - Fc_crwwp: flat combining + C-RW-WP writer-preference lock
     (Romulus, RomulusLog), one combiner [station].  The combiner
     executes the whole queue of pending updates in a single durable
     transaction: batch cost = batch_fixed + B * update_work.  Readers
     step aside for writers.
   - Fc_left_right: the same station, but readers never block; the
     writer pays up to one read duration per toggle (twice per batch) to
     drain readers (RomulusLR).
   - Fc_sharded: one C-RW-WP station per hash shard of the sharded
     store.  Each operation routes to a uniformly random shard, so
     single-key updates on different shards combine and commit
     concurrently.  A cross-shard batch (probability cross_p) follows
     the store's commit protocol: the per-shard intent mirrors are
     written *concurrently* (each participant's mirror+apply is one
     ordinary transaction on its own shard), then one COMMIT flip rides
     the coordinator's combiner (the min participant) and the chain ends
     there — stale records are reclaimed inside later protocol
     transactions at no extra slot.  The chain carries a fixed cost
     (payload encoding, undo capture) and counts as one update.
   - Fc_group: the group-commit front-end's submission queues, drained
     in windows settled as one engine round each.
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
  read_ns : float;
  update_work_ns : float;
  batch_fixed_ns : float;
  think_ns : float;
}

type large_batch = {
  large_p : float;
  chunks : int;
  chunk_tx_ns : float;
  streamed : bool;
}

type resize = {
  move_batches : int;
  move_tx_ns : float;
  start_frac : float;
}

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
      intent_fixed_ns : float;
      large : large_batch option;
      resize : resize option;
    }
  | Fc_group of {
      shards : int;
      window : int;
      ack : group_ack;
      cross_p : float;
      intent_fixed_ns : float;
    }
  | Rw_reader_pref of { atomic_ns : float }
  | Stm of {
      conflict_p : float;
      read_conflict_p : float;
      commit_serial_ns : float;
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

(* ---- the closed loop every model runs ---- *)

(* One simulation run: the simulator, the costs, and the counters the
   models' thread loops feed. *)
type loop = {
  sim : Des.t;
  c : costs;
  mutable reads : int;
  mutable updates : int;
  (* single-key update completion latency (submission to durable
     finish), for the models that track it *)
  mutable small_n : int;
  mutable small_sum : float;
  mutable small_max : float;
}

let loop cfg =
  { sim = Des.create ~seed:cfg.seed (); c = cfg.costs; reads = 0;
    updates = 0; small_n = 0; small_sum = 0.; small_max = 0. }

(* one completed single-key update submitted at [t0] *)
let small_done l t0 =
  let lat = Des.now l.sim -. t0 in
  l.small_n <- l.small_n + 1;
  l.small_sum <- l.small_sum +. lat;
  if lat > l.small_max then l.small_max <- lat

(* a thread's jittered gap before its next operation *)
let after_think l f = Des.schedule l.sim (jitter l.sim l.c.think_ns) f

(* The delay until one [d]-long use of a serialized resource completes
   — the resource is busy until [!free] — reserving it for that use. *)
let serial_use l free d =
  let start = max (Des.now l.sim) !free in
  let finish = start +. d in
  free := finish;
  finish -. Des.now l.sim

(* a uniformly random shard out of [shards] *)
let pick_shard l shards =
  min (shards - 1) (int_of_float (Des.random l.sim *. float_of_int shards))

(* Start [cfg.readers] reader threads, then [cfg.writers] writer
   threads, then the optional [background] job, and run the clock to the
   horizon. *)
let simulate ?(background = ignore) cfg l ~reader ~writer =
  for _ = 1 to cfg.readers do
    reader ()
  done;
  for _ = 1 to cfg.writers do
    writer ()
  done;
  background ();
  Des.run l.sim ~until:cfg.duration_ns;
  { reads_done = l.reads; updates_done = l.updates;
    elapsed_ns = cfg.duration_ns;
    small_mean_ns =
      (if l.small_n = 0 then 0. else l.small_sum /. float_of_int l.small_n);
    small_max_ns = l.small_max }

(* ---- the flat-combining station (Fc_crwwp/_left_right/_sharded) ---- *)

(* One combiner lock with its queue of pending requests.  A request is
   (extra_ns, finish): extra_ns is payload work beyond the uniform
   per-update cost, and [finish] runs once the combiner has durably
   applied it.  The combiner executes the whole queue as one batch
   costing batch_fixed + B * update_work + the extras.  Under C-RW-WP the
   combiner first drains the readers, and arriving readers stand aside
   until it releases; under Left-Right ([lr]) readers never block and
   the combiner instead waits them out on each of its two toggles —
   readers all run for read_ns, so a full drain costs at most one read
   per toggle. *)
type station = {
  l : loop;
  lr : bool;
  mutable combiner_active : bool;
  mutable writer_pending : bool;  (* never set under Left-Right *)
  mutable readers_active : int;
  pending : (float * (unit -> unit)) Queue.t;
  waiting_readers : (unit -> unit) Queue.t;
}

let station l ~lr =
  { l; lr; combiner_active = false; writer_pending = false;
    readers_active = 0; pending = Queue.create ();
    waiting_readers = Queue.create () }

let rec try_start_batch st =
  if (not st.combiner_active) && not (Queue.is_empty st.pending) then begin
    if st.lr then start_batch st
    else begin
      st.writer_pending <- true;
      if st.readers_active = 0 then start_batch st
      (* else: the last departing reader starts it *)
    end
  end

and start_batch st =
  let c = st.l.c in
  st.combiner_active <- true;
  st.writer_pending <- false;
  let batch = Queue.create () in
  Queue.transfer st.pending batch;
  let b = float_of_int (Queue.length batch) in
  let extra = Queue.fold (fun acc (e, _) -> acc +. e) 0. batch in
  let drain =
    if st.lr && st.readers_active > 0 then 2. *. c.read_ns else 0.
  in
  let cost = c.batch_fixed_ns +. (b *. c.update_work_ns) +. extra +. drain in
  Des.schedule st.l.sim cost (fun () ->
      Queue.iter (fun (_, finish) -> finish ()) batch;
      st.combiner_active <- false;
      (* release the readers that stood aside *)
      Queue.iter (fun resume -> resume ()) st.waiting_readers;
      Queue.clear st.waiting_readers;
      try_start_batch st)

let reader_departed st =
  st.readers_active <- st.readers_active - 1;
  if st.readers_active = 0 && st.writer_pending && not st.combiner_active
  then start_batch st

(* one read-only transaction at [st]; [k] runs once it has completed *)
let read st k =
  let start () =
    st.readers_active <- st.readers_active + 1;
    Des.schedule st.l.sim st.l.c.read_ns (fun () ->
        st.l.reads <- st.l.reads + 1;
        reader_departed st;
        k ())
  in
  if (not st.lr) && (st.combiner_active || st.writer_pending) then
    Queue.add start st.waiting_readers
  else start ()

(* enqueue one request on [st]; [finish] runs when it is durable *)
let submit ?(extra = 0.) st finish =
  Queue.add (extra, finish) st.pending;
  try_start_batch st

(* ---- flat combining + C-RW-WP / Left-Right (one station) ---- *)

let run_fc ~lr cfg =
  let l = loop cfg in
  let st = station l ~lr in
  let rec reader () = after_think l (fun () -> read st reader) in
  let rec writer () =
    after_think l (fun () ->
        submit st (fun () ->
            l.updates <- l.updates + 1;
            writer ()))
  in
  simulate cfg l ~reader ~writer

(* ---- sharded flat combining (Sharded_db) ---- *)

(* One station per shard.  Single-key operations route to a uniformly
   random shard.  A cross-shard batch is a dependency graph of
   sub-requests, each riding the target shard's ordinary combining
   queue, plus [intent_fixed_ns] of serialized protocol bookkeeping (the
   graph is the commit protocol's, see the header).  The whole graph
   counts as one update.  A resize adds one more station: the migration
   target's combiner, which takes no foreground traffic during the
   stream. *)
let run_fc_sharded ~shards ~cross_p ~intent_fixed_ns ~large ~resize cfg =
  if shards < 1 then invalid_arg "Sync_model: shards < 1";
  let l = loop cfg in
  let sim = l.sim in
  let stations = shards + (match resize with Some _ -> 1 | None -> 0) in
  let st = Array.init stations (fun _ -> station l ~lr:false) in
  (* one participant's PREPARE when the batch carries a large payload:
     streamed — [chunks] dependent combiner slots, one chunk each, so
     other requests on the shard interleave between them (the last slot
     is the seal+apply); monolithic — the whole payload holds a single
     slot and everything queued behind it waits the payload out *)
  let prepare_large lb s k =
    if lb.streamed then begin
      let rec chain n =
        if n = 0 then k ()
        else submit ~extra:lb.chunk_tx_ns st.(s) (fun () -> chain (n - 1))
      in
      chain lb.chunks
    end
    else
      submit ~extra:(float_of_int lb.chunks *. lb.chunk_tx_ns) st.(s) k
  in
  let rec reader () =
    after_think l (fun () -> read st.(pick_shard l shards) reader)
  in
  let rec writer () =
    after_think l (fun () ->
        if shards > 1 && cross_p > 0. && Des.random sim < cross_p then begin
          (* cross-shard batch over two distinct shards *)
          let a = pick_shard l shards in
          let b =
            (a + 1
             + min (shards - 2)
                 (int_of_float (Des.random sim *. float_of_int (shards - 1))))
            mod shards
          in
          let finish () =
            Des.schedule sim intent_fixed_ns (fun () ->
                l.updates <- l.updates + 1;
                writer ())
          in
          (* the payload size is a property of the batch, not of one
             participant: decide once *)
          let batch_large =
            match large with
            | Some lb when lb.large_p > 0. && Des.random sim < lb.large_p ->
              Some lb
            | _ -> None
          in
          let coord = min a b in
          let prepare s k =
            match batch_large with
            | Some lb -> prepare_large lb s k
            | None -> submit st.(s) k
          in
          (* mirrors+applies run concurrently, one tx per participant (a
             chain of chunk transactions when the batch is large and
             streamed); the second to finish submits the COMMIT flip on
             the coordinator *)
          let left = ref 2 in
          let mirror_done () =
            decr left;
            if !left = 0 then submit st.(coord) finish
          in
          prepare a mirror_done;
          prepare b mirror_done
        end
        else begin
          let t0 = Des.now sim in
          submit st.(pick_shard l shards) (fun () ->
              small_done l t0;
              l.updates <- l.updates + 1;
              writer ())
        end)
  in
  (* the background migration: intent on shard 0, a dependent chain of
     source-tx/target-tx move pairs (source is shard 0, the protocol
     anchor; the target is the extra station), and the epoch flip back
     through shard 0 — every slot queued like any other request, which
     is exactly why foreground throughput dips while the stream runs *)
  let background () =
    match resize with
    | None -> ()
    | Some r ->
      if r.move_batches < 0 then invalid_arg "Sync_model: move_batches < 0";
      let src = st.(0) and tgt = st.(shards) in
      Des.schedule sim (r.start_frac *. cfg.duration_ns) (fun () ->
          submit src (fun () ->
              let rec move n =
                if n = 0 then submit src ignore
                else
                  submit ~extra:r.move_tx_ns src (fun () ->
                      submit ~extra:r.move_tx_ns tgt (fun () -> move (n - 1)))
              in
              move r.move_batches))
  in
  simulate ~background cfg l ~reader ~writer

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
  let l = loop cfg in
  let sim = l.sim and c = l.c in
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
              l.updates <- l.updates + 1;
              if s <> cross then small_done l t0;
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
  let blocking = ack = Ack_sync in
  let rec writer () =
    after_think l (fun () ->
        let s =
          if shards > 1 && cross_p > 0. && Des.random sim < cross_p then
            cross
          else pick_shard l shards
        in
        submit s ~blocking writer)
  in
  (* reads bypass the queues (the front-end is read-your-writes without
     forcing a drain), so a reader just pays the store's read cost *)
  let rec reader () =
    after_think l (fun () ->
        Des.schedule sim c.read_ns (fun () ->
            l.reads <- l.reads + 1;
            reader ()))
  in
  simulate cfg l ~reader ~writer

(* ---- reader-preference RW lock (PMDK setup) ---- *)

let run_rw_reader_pref ~atomic_ns cfg =
  let l = loop cfg in
  let sim = l.sim and c = l.c in
  let writer_holding = ref false in
  let readers_active = ref 0 in
  let waiting_writers = Queue.create () in
  let waiting_readers = Queue.create () in
  let update_cost = c.batch_fixed_ns +. c.update_work_ns in
  (* the shared reader counter: RMWs on its cache line serialize *)
  let counter_free = ref 0. in
  let counter_hop () = serial_use l counter_free atomic_ns in
  let rec maybe_admit_writer () =
    (* a writer may proceed only at an instant with no active readers and
       no writer holding; merely-waiting writers do not block readers *)
    if (not !writer_holding) && !readers_active = 0
       && not (Queue.is_empty waiting_writers)
    then begin
      writer_holding := true;
      let finish = Queue.take waiting_writers in
      Des.schedule sim update_cost (fun () ->
          l.updates <- l.updates + 1;
          writer_holding := false;
          (* release: admit everyone who queued behind the writer *)
          let rs = Queue.copy waiting_readers in
          Queue.clear waiting_readers;
          Queue.iter (fun resume -> resume ()) rs;
          maybe_admit_writer ();
          finish ())
    end
  in
  let rec reader () =
    after_think l (fun () ->
        if !writer_holding then
          Queue.add start_read waiting_readers
        else start_read ())
  and start_read () =
    (* reader preference: the reader counts as arrived immediately (so a
       pack of readers released together blocks the next writer), then
       pays the serialized arrive RMW, the read, and the depart RMW *)
    readers_active := !readers_active + 1;
    Des.schedule sim (counter_hop ()) (fun () ->
        Des.schedule sim c.read_ns (fun () ->
            Des.schedule sim (counter_hop ()) (fun () ->
                l.reads <- l.reads + 1;
                readers_active := !readers_active - 1;
                maybe_admit_writer ();
                reader ())))
  in
  let rec writer () =
    after_think l (fun () ->
        Queue.add writer waiting_writers;
        maybe_admit_writer ())
  in
  simulate cfg l ~reader ~writer

(* ---- optimistic STM (Mnemosyne setup) ---- *)

let run_stm ~conflict_p ~read_conflict_p ~commit_serial_ns cfg =
  let l = loop cfg in
  let sim = l.sim and c = l.c in
  let commit_count = ref 0 in
  let update_cost =
    max 0. (c.batch_fixed_ns +. c.update_work_ns -. commit_serial_ns)
  in
  (* the durable phase persists the redo log: serialized across threads *)
  let commit_free = ref 0. in
  let commit_slot () = serial_use l commit_free commit_serial_ns in
  let abort_probability p started =
    let overlapping = !commit_count - started in
    if overlapping <= 0 || p <= 0. then 0.
    else 1. -. ((1. -. p) ** float_of_int overlapping)
  in
  (* a retry waits a think time growing with its attempts, capped at 8x *)
  let after_backoff attempt f =
    let delay =
      if attempt = 0 then c.think_ns
      else c.think_ns *. float_of_int (min attempt 8)
    in
    Des.schedule sim (jitter sim delay) f
  in
  let rec reader_loop attempt =
    after_backoff attempt (fun () ->
        let started = !commit_count in
        Des.schedule sim c.read_ns (fun () ->
            if Des.random sim < abort_probability read_conflict_p started
            then reader_loop (attempt + 1)
            else begin
              l.reads <- l.reads + 1;
              reader_loop 0
            end))
  in
  let rec writer_loop attempt =
    after_backoff attempt (fun () ->
        let started = !commit_count in
        Des.schedule sim update_cost (fun () ->
            if Des.random sim < abort_probability conflict_p started then
              writer_loop (attempt + 1)
            else
              (* survived validation: enter the serialized durable phase *)
              Des.schedule sim (commit_slot ()) (fun () ->
                  incr commit_count;
                  l.updates <- l.updates + 1;
                  writer_loop 0)))
  in
  simulate cfg l
    ~reader:(fun () -> reader_loop 0)
    ~writer:(fun () -> writer_loop 0)

let run cfg =
  match cfg.model with
  | Fc_crwwp -> run_fc ~lr:false cfg
  | Fc_left_right -> run_fc ~lr:true cfg
  | Fc_sharded { shards; cross_p; intent_fixed_ns; large; resize } ->
    run_fc_sharded ~shards ~cross_p ~intent_fixed_ns ~large ~resize cfg
  | Fc_group { shards; window; ack; cross_p; intent_fixed_ns } ->
    run_fc_group ~shards ~window ~ack ~cross_p ~intent_fixed_ns cfg
  | Rw_reader_pref { atomic_ns } -> run_rw_reader_pref ~atomic_ns cfg
  | Stm { conflict_p; read_conflict_p; commit_serial_ns } ->
    run_stm ~conflict_p ~read_conflict_p ~commit_serial_ns cfg

let default_costs =
  { read_ns = 300.; update_work_ns = 600.; batch_fixed_ns = 400.;
    think_ns = 30. }
