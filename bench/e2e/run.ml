(* One benchmark run: in each of [Workload.rounds] rounds, set up a fresh
   4-shard store, drive a share of the workload's operation stream
   through Group_commit -> Sharded_db -> engine -> Pmem.Region in a
   closed loop (one client, no think time), then crash every region
   without a flush, reopen, and check the outputs.  Samples and counts
   add up over the rounds; throughput, set-up and recovery times are
   medians over them.

   A latency is monotonic wall time plus the emulated media delay the
   operation accrued (the regions' [delay_ns]): fences cost only virtual
   time in this simulation, so without that term a fence saving would
   never show. *)

open Workload

let now = Trace.now

type result = {
  metrics : (string * float) list;
  hists : (string * Hist.windowed) list;  (* latency samples behind the metrics *)
  attempted : int;
  failed : int;
  checks : (string * bool) list;     (* oracle name, passed in every round *)
  lost_acked : int;
  notes : (string * float) list;     (* printed, not part of the result line *)
}

(* Latency percentiles are taken over windows of this many samples (see
   {!Hist.windowed}): ten beyond a window's p99. *)
let window = 1000
let pcts = [| 0.5; 0.99 |]

(* Peak resident set (VmHWM) of this process, in MiB. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> nan
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> go ()
      in
      go ())

(* Per-shard region size for [keys] keys: ~192 B of chunks per key per
   twin plus bucket arrays and allocator slack, 10% for routing skew, and
   room for protocol records. *)
let region_bytes keys =
  let per_shard = (keys / shards * 11 / 10) + 64 in
  2 * ((per_shard * 256) + (1 lsl 20))

(* The hash maps start sized for the preload (load factor <= 1): a key
   count sitting on a resize threshold would otherwise resize on some
   seeds and not on others, and move every later allocation. *)
let initial_buckets spec =
  let rec pow2 n = if n >= spec.keys / shards then n else pow2 (2 * n) in
  pow2 1024

(* A write waiting for its acknowledgement: its queue's watermark must
   pass [seq]. *)
type pending = {
  seq : int;
  t_enq : int;
  m_enq : int;
  id1 : int;
  v1 : string;
  id2 : int;  (* -1 when the op wrote one key *)
  v2 : string;
}

(* Totals over the rounds of a run. *)
type acc = {
  h : Hist.windowed array;     (* latency per op kind *)
  lag : Hist.windowed;         (* enqueue -> acknowledgement, writes *)
  mutable segments : int array list;  (* per round: wall + media ns of each
                                         tenth of its op stream *)
  kinds : int array;           (* ops issued per kind *)
  mutable failed : int;
  mutable wrong_reads : int;
  mutable lost : int;
  mutable client_bytes : int;  (* key + value bytes the client wrote *)
  mutable cross_writes : int;  (* writes whose keys span shards *)
  mutable phase_ns : int;      (* wall time of the measured loops *)
  mutable op_wall_ns : int;    (* ... of which inside an op *)
  mutable harness_ns : int;    (* ... of which the loop's per-op bookkeeping
                                  (traced runs only) *)
  mutable media_ns : int;
  mutable pm : Pmem.Stats.t list;  (* persistence counters per round *)
  mutable minor_words : float;
  mutable major : int;
  mutable setup_s : float list;
  mutable recovery_ms : float list;
  mutable shard_max_ms : float list;
  mutable shard_sum_ms : float list;
  mutable checks : (string * bool) list;
  (* traced runs: timed vs untimed ops, and the span counts *)
  mutable timed_lat : int;
  mutable n_timed : int;
  mutable untimed_lat : int;
  mutable n_untimed : int;
  mutable self_ns : int;
  mutable write_updates : int;  (* outermost engine txs inside writes *)
  mutable write_reads : int;
  mutable updates : int;
  mutable reads : int;
  mutable allocs : int;
  mutable frees : int;
}

let new_acc () =
  { h = Array.init 2 (fun _ -> Hist.windowed ~size:window pcts);
    lag = Hist.windowed ~size:window pcts; segments = [];
    kinds = Array.make 2 0; failed = 0; wrong_reads = 0; lost = 0;
    client_bytes = 0; cross_writes = 0; phase_ns = 0; op_wall_ns = 0; harness_ns = 0;
    media_ns = 0; pm = []; minor_words = 0.; major = 0; setup_s = [];
    recovery_ms = []; shard_max_ms = []; shard_sum_ms = []; checks = [];
    timed_lat = 0; n_timed = 0; untimed_lat = 0; n_untimed = 0; self_ns = 0;
    write_updates = 0; write_reads = 0; updates = 0; reads = 0; allocs = 0;
    frees = 0 }

(* Throughput: ops of one round over the time a round takes, where that
   time is the sum over its tenths of the median over rounds.  Every
   tenth keeps its own growth and drain costs (they fall at the same
   point of every round), while a burst of interference that slowed one
   round's tenth drops out. *)
let segments = 10

let throughput acc ~ops_per_round =
  let tenth k = Hist.median (List.map (fun a -> float_of_int a.(k)) acc.segments) in
  let ns = List.fold_left ( +. ) 0. (List.init segments tenth) in
  float_of_int ops_per_round /. (ns /. 1e9)

(* An oracle passes only if it passes in every round. *)
let check acc name ok =
  acc.checks <-
    (match List.assoc_opt name acc.checks with
     | None -> acc.checks @ [ (name, ok) ]
     | Some was ->
       List.map (fun (n, v) -> if n = name then (n, was && ok) else (n, v)) acc.checks)

module Make (P : Kv.Sharded_db.SHARD_PTM) = struct
  module SD = Kv.Sharded_db.Make (P)
  module GC = Kv.Group_commit.Make (P)

  type store = {
    regions : Pmem.Region.t array;
    st : Pmem.Stats.t array;
    db : SD.t;
    gc : GC.t;
  }

  let media st =
    let s = ref 0 in
    for i = 0 to Array.length st - 1 do
      s := !s + st.(i).Pmem.Stats.delay_ns
    done;
    !s

  let initial_value spec pool id =
    match spec.shape with
    | Bank -> balance_value initial_balance
    | Kv | Ingest -> pool.(id mod pool_size)

  (* Create the regions, open the store and preload it in per-shard
     batches of 256 keys, each one engine transaction, in key-id order —
     so a key's heap position grows with its id. *)
  let build spec ~seed ~pool ~region_bytes =
    let regions =
      Array.init shards (fun _ ->
          Pmem.Region.create ~fence:Pmem.Fence.stt ~size:region_bytes ())
    in
    let db = SD.open_db ~initial_buckets:(initial_buckets spec) regions in
    let buf = Array.make shards [] in
    let flush s =
      if buf.(s) <> [] then begin
        let ops = List.rev buf.(s) in
        SD.write_batch db (fun b -> List.iter (fun (k, v) -> SD.put b k v) ops);
        buf.(s) <- []
      end
    in
    for id = 0 to spec.keys - 1 do
      let k = key seed id in
      let s = SD.shard_of_key db k in
      buf.(s) <- (k, initial_value spec pool id) :: buf.(s);
      if List.compare_length_with buf.(s) 256 >= 0 then flush s
    done;
    Array.iteri (fun s _ -> flush s) buf;
    { regions; st = Array.map Pmem.Region.stats regions; db;
      gc = GC.attach ~ack:spec.ack db }

  let crash_all s =
    Array.iter (fun r -> Pmem.Region.crash r Pmem.Region.Drop_all) s.regions

  let round acc spec ~seed ~round ~ops ~traced =
    let pool = value_pool seed in
    Gc.full_major ();
    let t0 = now () in
    let s = build spec ~seed ~pool ~region_bytes:(region_bytes (expected_keys spec ~ops)) in
    acc.setup_s <- (float_of_int (now () - t0) /. 1e9) :: acc.setup_s;
    let db = s.db and gc = s.gc and st = s.st in
    let cross = GC.queues gc - 1 in
    (* models: [live] is what a read must see (every write issued so far,
       read-your-writes), [acked] what must survive a crash; "" = absent *)
    let live = Array.make (key_space spec ~ops) "" in
    for id = 0 to spec.keys - 1 do live.(id) <- initial_value spec pool id done;
    let acked = Array.copy live in
    let pend = Array.init (GC.queues gc) (fun _ -> Queue.create ()) in
    let npending = ref 0 in
    let g = generator spec ~seed ~round ~ops in
    let blk = make_block () in
    let ks1 = Array.make block_size "" and ks2 = Array.make block_size "" in
    let qi = Array.make block_size 0 in
    (* traced runs: a seeded coin picks the ops that are timed *)
    let coin = Random.State.make [| seed; round; 0xc01 |] in
    let timed = Array.make block_size false in
    (* what the last transfer read and wrote *)
    let r1 = ref None and r2 = ref None in
    let w1 = ref "" and w2 = ref "" in
    (* A write is acknowledged once its queue's watermark passes its entry
       (at once under Sync); only then does it enter [acked]. *)
    let ack id1 v1 id2 v2 lag =
      acked.(id1) <- v1;
      if id2 >= 0 then acked.(id2) <- v2;
      Hist.add_windowed acc.lag lag
    in
    let settle t1 m1 =
      for q = 0 to Array.length pend - 1 do
        let pq = pend.(q) and wm = GC.watermark gc q in
        while (not (Queue.is_empty pq)) && (Queue.peek pq).seq < wm do
          let e = Queue.pop pq in
          decr npending;
          ack e.id1 e.v1 e.id2 e.v2 (t1 - e.t_enq + (m1 - e.m_enq))
        done
      done
    in
    let wrote ~q ~t0 ~m0 ~t1 ~m1 id1 v1 id2 v2 =
      live.(id1) <- v1;
      if id2 >= 0 then live.(id2) <- v2;
      let seq = GC.submitted gc q - 1 in
      if GC.watermark gc q > seq then ack id1 v1 id2 v2 (t1 - t0 + (m1 - m0))
      else begin
        Queue.push { seq; t_enq = t0; m_enq = m0; id1; v1; id2; v2 } pend.(q);
        incr npending
      end
    in
    let check_read id got =
      match got, live.(id) with
      | None, "" -> ()
      | Some v, want when String.equal v want -> ()
      | _ -> acc.wrong_reads <- acc.wrong_reads + 1
    in
    (* the client's transfer for op [i] of the block: one transaction
       reading both balances and rewriting both *)
    let transfer i =
      let k1 = ks1.(i) and k2 = ks2.(i) and amount = blk.v.(i) in
      fun b ->
        r1 := SD.get b k1;
        r2 := SD.get b k2;
        match !r1, !r2 with
        | Some a, Some c ->
          w1 := balance_value (balance_of a - amount);
          w2 := balance_value (balance_of c + amount);
          SD.put b k1 !w1;
          SD.put b k2 !w2
        | _ -> failwith "transfer: missing account"
    in
    (* issue op [i]: a get's answer, [None] for writes, [failed_op] when
       the operation raised *)
    let failed_op = Some "" in
    let issue kind i =
      match
        if kind = op_get then GC.get gc ks1.(i)
        else if spec.shape = Bank then (GC.write_batch gc (transfer i); None)
        else (GC.put gc ks1.(i) pool.(blk.v.(i)); None)
      with
      | r -> r
      | exception _ -> failed_op
    in
    Gc.full_major ();
    let pm0 = Pmem.Stats.aggregate (Array.to_list st) and gc0 = Gc.quick_stat () in
    let tu0 = !Trace.update_outer and tr0 = !Trace.read_outer in
    let ta0 = !Trace.allocs and tf0 = !Trace.frees in
    let m_start = media st and phase_ns = ref 0 in
    let seg = Array.make segments 0 in
    while next_block g blk do
      let k = (ops - g.remaining - blk.len) * segments / ops in
      (* untimed: resolve key strings, target queues and timing coins *)
      for i = 0 to blk.len - 1 do
        ks1.(i) <- key seed blk.k1.(i);
        if blk.k2.(i) >= 0 then begin
          ks2.(i) <- key seed blk.k2.(i);
          qi.(i) <- cross;
          if SD.shard_of_key db ks1.(i) <> SD.shard_of_key db ks2.(i) then
            acc.cross_writes <- acc.cross_writes + 1
        end
        else qi.(i) <- SD.shard_of_key db ks1.(i);
        if traced then timed.(i) <- Random.State.bool coin
      done;
      let b0 = now () and bm0 = media st in
      (* nothing between two ops accrues media delay, so an op starts from
         the previous op's end reading; a traced op also starts at the
         end of the previous op's timed bookkeeping, so the loop's time
         is all inside one span or the other *)
      let m_prev = ref bm0 and t_prev = ref b0 in
      for i = 0 to blk.len - 1 do
        let kind = blk.kind.(i) in
        let on = traced && timed.(i) in
        if on then begin
          Trace.on := true;
          Trace.op_engine_ns := 0;
          incr Trace.op_id
        end;
        let u0 = !Trace.update_outer and rd0 = !Trace.read_outer in
        let m0 = !m_prev in
        let t0 = if traced then !t_prev else now () in
        let sp = if on then Trace.open_span kind t0 else -1 in
        let got = issue kind i in
        let t1 = now () in
        Trace.close_span sp t1;
        let m1 = media st in
        m_prev := m1;
        Trace.on := false;
        let wall = t1 - t0 in
        let lat = wall + (m1 - m0) in
        acc.op_wall_ns <- acc.op_wall_ns + wall;
        acc.kinds.(kind) <- acc.kinds.(kind) + 1;
        if traced then begin
          if on then begin
            acc.timed_lat <- acc.timed_lat + lat;
            acc.n_timed <- acc.n_timed + 1;
            acc.self_ns <- acc.self_ns + wall - !Trace.op_engine_ns
          end
          else begin
            acc.untimed_lat <- acc.untimed_lat + lat;
            acc.n_untimed <- acc.n_untimed + 1
          end;
          if kind = op_write then begin
            acc.write_updates <- acc.write_updates + !Trace.update_outer - u0;
            acc.write_reads <- acc.write_reads + !Trace.read_outer - rd0
          end
        end;
        if got == failed_op then acc.failed <- acc.failed + 1
        else begin
          Hist.add_windowed acc.h.(kind) lat;
          if !npending > 0 then settle t1 m1;
          let id1 = blk.k1.(i) and id2 = blk.k2.(i) in
          if kind = op_get then check_read id1 got
          else if spec.shape = Bank then begin
            acc.client_bytes <- acc.client_bytes + (2 * (key_bytes + value_bytes));
            check_read id1 !r1;
            check_read id2 !r2;
            wrote ~q:qi.(i) ~t0 ~m0 ~t1 ~m1 id1 !w1 id2 !w2
          end
          else begin
            acc.client_bytes <- acc.client_bytes + key_bytes + value_bytes;
            wrote ~q:qi.(i) ~t0 ~m0 ~t1 ~m1 id1 pool.(blk.v.(i)) (-1) ""
          end
        end;
        if traced then begin
          t_prev := now ();
          acc.harness_ns <- acc.harness_ns + (!t_prev - t1)
        end
      done;
      let wall = now () - b0 in
      phase_ns := !phase_ns + wall;
      seg.(k) <- seg.(k) + wall + (media st - bm0)
    done;
    acc.phase_ns <- acc.phase_ns + !phase_ns;
    acc.media_ns <- acc.media_ns + (media st - m_start);
    acc.segments <- seg :: acc.segments;
    let gc1 = Gc.quick_stat () in
    acc.pm <- Pmem.Stats.since ~now:(Pmem.Stats.aggregate (Array.to_list st)) ~past:pm0 :: acc.pm;
    acc.minor_words <- acc.minor_words +. (gc1.Gc.minor_words -. gc0.Gc.minor_words);
    acc.major <- acc.major + gc1.Gc.major_collections - gc0.Gc.major_collections;
    acc.updates <- acc.updates + !Trace.update_outer - tu0;
    acc.reads <- acc.reads + !Trace.read_outer - tr0;
    acc.allocs <- acc.allocs + !Trace.allocs - ta0;
    acc.frees <- acc.frees + !Trace.frees - tf0;
    acc.failed <- acc.failed + List.length (GC.failures gc);
    (* ---- oracles before the crash ---- *)
    let check = check acc in
    check "no failed or refused ops" (acc.failed = 0);
    check "reads see every earlier write" (acc.wrong_reads = 0);
    let used = match spec.shape with Ingest -> g.next_fresh | _ -> spec.keys in
    let balance_sum db =
      let s = ref 0 in
      for a = 0 to spec.keys - 1 do
        match SD.get db (key seed a) with
        | Some v -> s := !s + balance_of v
        | None -> s := min_int
      done;
      !s
    in
    let conserved = spec.keys * initial_balance in
    (match spec.shape with
     | Bank -> check "balances conserved after the run" (balance_sum db = conserved)
     | Ingest ->
       check "count = preload + inserts" (SD.count db + !npending = used)
     | Kv -> ());
    (* ---- crash without a flush, recover, check durability ---- *)
    let ms t0 = float_of_int (now () - t0) /. 1e6 in
    let db' =
      if traced then begin
        crash_all s;
        let per_shard =
          List.init shards (fun i ->
              let t0 = now () in
              SD.recover_shard db i;
              ms t0)
        in
        acc.shard_max_ms <- List.fold_left max 0. per_shard :: acc.shard_max_ms;
        acc.shard_sum_ms <- List.fold_left ( +. ) 0. per_shard :: acc.shard_sum_ms;
        SD.open_db ~initial_buckets:(initial_buckets spec) s.regions
      end
      else begin
        let db' = ref db in
        for _ = 1 to 3 do
          crash_all s;
          let t0 = now () in
          db' := SD.open_db ~initial_buckets:(initial_buckets spec) s.regions;
          acc.recovery_ms <- ms t0 :: acc.recovery_ms
        done;
        !db'
      end
    in
    let lost = ref 0 and phantom = ref 0 and present = ref 0 in
    for id = 0 to used - 1 do
      let want = acked.(id) in
      if want <> "" then incr present;
      match SD.get db' (key seed id), want with
      | None, "" -> ()
      | Some _, "" -> incr phantom
      | Some v, w when String.equal v w -> ()
      | _ -> incr lost
    done;
    acc.lost <- acc.lost + !lost;
    check "every acked write survives the crash" (!lost = 0);
    check "no unacked write appears after the crash" (!phantom = 0);
    check "count after recovery = acked keys" (SD.count db' = !present);
    check "store structure intact after recovery" (SD.check db' = Ok ());
    if spec.shape = Bank then
      check "balances conserved after recovery" (balance_sum db' = conserved)

  let run spec ~seed ~ops ~traced ~trace_out =
    let acc = new_acc () in
    if traced then Trace.reset ();
    for r = 1 to rounds do
      round acc spec ~seed ~round:r ~ops:(ops / rounds) ~traced
    done;
    if traced then Option.iter Trace.write_chrome trace_out;
    let f = float_of_int in
    let attempted = Array.fold_left ( + ) 0 acc.kinds in
    let d = Pmem.Stats.aggregate acc.pm in
    let per_op x = f x /. f attempted in
    let us_per n ns = if n = 0 then 0. else f ns /. f n /. 1e3 in
    let pct k p = Hist.windowed_percentile acc.h.(k) p /. 1e3 in
    let metrics =
      if not traced then
        [ ("throughput_ops_s", throughput acc ~ops_per_round:(ops / rounds));
          ("get_p50_us", pct op_get 0.5);
          ("get_p99_us", pct op_get 0.99);
          ("write_p50_us", pct op_write 0.5);
          ("write_p99_us", pct op_write 0.99);
          ("durable_lag_p99_us", Hist.windowed_percentile acc.lag 0.99 /. 1e3);
          ("recovery_ms", Hist.quantile acc.recovery_ms 0.25);
          ("write_amp", f d.Pmem.Stats.nvm_bytes /. f acc.client_bytes);
          ("setup_s", Hist.median acc.setup_s);
          ("peak_rss_mb", peak_rss_mb ()) ]
      else
        let palloc_ns = !Trace.alloc_ns + !Trace.free_ns in
        let writes = f (max 1 acc.kinds.(op_write)) in
        [ ("palloc.free_us", us_per !Trace.timed_frees !Trace.free_ns);
          ("palloc.free_per_op", per_op acc.frees);
          ("palloc.alloc_us", us_per !Trace.timed_allocs !Trace.alloc_ns);
          ("palloc.alloc_per_op", per_op acc.allocs);
          ("palloc.share", f palloc_ns /. f acc.timed_lat);
          ("group_commit.ops_per_engine_tx", writes /. f d.Pmem.Stats.commits);
          ("group_commit.self_us", us_per acc.n_timed acc.self_ns);
          ("sharded_db.engine_tx_per_write", f acc.write_updates /. writes);
          ("sharded_db.read_tx_per_write", f acc.write_reads /. writes);
          ("sharded_db.cross_frac", f acc.cross_writes /. writes);
          ("engine.read_tx_us", us_per !Trace.timed_reads !Trace.read_ns);
          ("engine.read_tx_per_op", per_op acc.reads);
          ("engine.update_tx_us", us_per !Trace.timed_updates !Trace.update_ns);
          ("engine.commit_us",
           us_per !Trace.timed_updates (!Trace.update_ns - !Trace.body_ns));
          ("engine.tx_body_us",
           us_per !Trace.timed_updates (!Trace.body_ns - palloc_ns));
          ("engine.update_tx_per_op", per_op acc.updates);
          ("pmem.fences_per_op", per_op (Pmem.Stats.fences d));
          ("pmem.pwbs_per_op", per_op d.Pmem.Stats.pwbs);
          ("pmem.replicated_bytes_per_op", per_op d.Pmem.Stats.replicated_bytes);
          ("pmem.media_delay_us_per_op", per_op acc.media_ns /. 1e3);
          ("pmem.nvm_bytes_per_op", per_op d.Pmem.Stats.nvm_bytes);
          ("recovery.shard_max_ms", Hist.median acc.shard_max_ms);
          ("recovery.shard_sum_ms", Hist.median acc.shard_sum_ms);
          ("gc.minor_words_per_op", acc.minor_words /. f attempted);
          ("gc.major_collections", f acc.major);
          ("trace.overhead_frac",
           (f acc.timed_lat /. f (max 1 acc.n_timed))
           /. (f acc.untimed_lat /. f (max 1 acc.n_untimed)) -. 1.);
          (* share of the throughput's time base (wall + media) covered
             neither by an op span nor by the loop's timed bookkeeping *)
          ("trace.unattributed_frac",
           f (acc.phase_ns - acc.op_wall_ns - acc.harness_ns)
           /. f (acc.phase_ns + acc.media_ns)) ]
    in
    { metrics;
      hists = [ ("get", acc.h.(op_get)); ("write", acc.h.(op_write));
                ("durable_lag", acc.lag) ];
      attempted; failed = acc.failed; checks = acc.checks; lost_acked = acc.lost;
      notes =
        (if traced then
           [ ("bench.harness_frac",
              f acc.harness_ns /. f (acc.phase_ns + acc.media_ns)) ]
         else []) }
end
