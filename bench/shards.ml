(* Shard-scaling benchmark for the hash-partitioned Sharded_db: how far
   does splitting one RomulusDB into N independent per-shard engines
   lift update throughput, and what does partitioning buy at recovery
   time?

   Three parts, emitted together to BENCH_shards.json:

   1. Calibration: single-threaded costs measured on the real store —
      read, single-shard batch fixed/marginal cost, and the extra cost
      of a cross-shard batch under the presumed-abort commit protocol
      (per-shard mirrors, one coordinator flip, lazy CLEAR).
   2. Throughput extrapolation: the calibrated costs drive the
      Fc_sharded DES model (one combiner per shard) across shard count
      x writer count, plus a cross-batch-ratio sweep — how much of the
      partitioning win the one-flip commit protocol keeps as batches
      cross shards.
   3. Recovery: a real N-shard store is crashed with every shard dirty
      (a trap fires mid-transaction in each), and each shard's engine
      recovery is timed separately — per-shard recovery work shrinks
      with 1/N, which is what the parallel recover fan-out exploits. *)

module S = Kv.Sharded_db.Default

(* A sharded store's own counter (see [Kv.Sharded_db.counters]). *)
let counted db c = Kv.Sharded_db.Counters.get (S.counters db) c

let key i = Printf.sprintf "k%06d" i
let value i = Printf.sprintf "v%08d" i

let make_store ?(fence = Pmem.Fence.stt) ~region_size nshards =
  let regions =
    Array.init nshards (fun _ ->
        Pmem.Region.create ~fence ~size:region_size ())
  in
  (S.open_db ~initial_buckets:1024 regions, regions)

(* first populated key routing to [shard]; the key space is dense enough
   that every shard owns many *)
let key_for_shard db ~keys shard =
  let rec find i =
    if i >= keys then failwith "no key routes to shard"
    else if S.shard_of_key db (key i) = shard then key i
    else find (i + 1)
  in
  find 0

(* ---- calibration on the real store ---- *)

type calib = {
  read_ns : float;
  update_work_ns : float;   (* marginal cost of one put inside a batch *)
  batch_fixed_ns : float;   (* per-transaction fixed cost *)
  (* extra serialized cost of a 2-shard batch beyond its three engine
     transactions (two mirror+apply, one coordinator flip) *)
  intent_fixed_ns : float;
}

let calibrate ~ops =
  let keys = 512 in
  let db1, r1 = make_store ~region_size:(1 lsl 21) 1 in
  for i = 0 to keys - 1 do
    S.put db1 (key i) (value i)
  done;
  let rng = Workload.Keygen.create ~seed:7 () in
  let rkey () = key (Workload.Keygen.int rng keys) in
  let median ?(runs = 3) ~ops f =
    Workload.Bench_clock.median_ns_per_op ~region:r1.(0) ~runs ~ops f
  in
  for _ = 1 to 50 do
    S.put db1 (rkey ()) "w"
  done;
  Gc.full_major ();
  let read_ns = median ~ops (fun () -> ignore (S.get db1 (rkey ()))) in
  let batch_of n =
    median ~ops:(max 8 (ops / (4 * n))) (fun () ->
        S.write_batch db1 (fun b ->
            for _ = 1 to n do
              S.put b (rkey ()) "w"
            done))
  in
  let batch1 = batch_of 1 in
  let batch16 = batch_of 16 in
  let update_work_ns =
    let w = (batch16 -. batch1) /. 15. in
    if w <= 0. || w > batch1 then batch1 else w
  in
  let batch_fixed_ns = Float.max 0. (batch1 -. update_work_ns) in
  (* measure the extra serialized cost of a 2-shard batch: the chain
     cost beyond its three engine transactions is the protocol's
     bookkeeping (payload encoding, undo capture, record management —
     including lazy CLEAR's piggybacked reclamation, which the
     steady-state loop amortizes into the mirror transactions) *)
  let tx_unit = batch_fixed_ns +. update_work_ns in
  let intent_fixed_ns =
    let db2, r2 = make_store ~region_size:(1 lsl 21) 2 in
    for i = 0 to keys - 1 do
      S.put db2 (key i) (value i)
    done;
    let ka = key_for_shard db2 ~keys 0 in
    let kb = key_for_shard db2 ~keys 1 in
    for _ = 1 to 20 do
      S.write_batch db2 (fun b ->
          S.put b ka "w";
          S.put b kb "w")
    done;
    Gc.full_major ();
    let cross_ns =
      (* virtual fence delays land on both regions; sum them *)
      let snap r = Pmem.Region.stats r in
      let s0 = Pmem.Stats.snapshot (snap r2.(0)) in
      let s1 = Pmem.Stats.snapshot (snap r2.(1)) in
      let n = max 8 (ops / 8) in
      let t0 = Workload.Bench_clock.now_ns () in
      for _ = 1 to n do
        S.write_batch db2 (fun b ->
            S.put b ka "w";
            S.put b kb "w")
      done;
      let wall = Workload.Bench_clock.now_ns () -. t0 in
      let d r past =
        let d = Pmem.Stats.since ~now:(snap r) ~past in
        float_of_int d.Pmem.Stats.delay_ns
      in
      (wall +. d r2.(0) s0 +. d r2.(1) s1) /. float_of_int n
    in
    Float.max 0. (cross_ns -. (3. *. tx_unit))
  in
  { read_ns; update_work_ns; batch_fixed_ns; intent_fixed_ns }

(* ---- DES throughput sweep ---- *)

let costs_of calib =
  { Simsched.Sync_model.read_ns = calib.read_ns;
    update_work_ns = calib.update_work_ns;
    batch_fixed_ns = calib.batch_fixed_ns;
    think_ns = Float.max Common.think_ns (0.25 *. calib.read_ns) }

let sharded_run ?resize ~scale ~calib ~shards ~cross_p ~large writers =
  Simsched.Sync_model.run
    { Simsched.Sync_model.model =
        Fc_sharded
          { shards; cross_p; intent_fixed_ns = calib.intent_fixed_ns;
            large; resize };
      costs = costs_of calib; readers = 0; writers;
      duration_ns = Common.sim_duration_ns scale; seed = 13 }

let updates_per_sec ~scale ~calib ~shards ~cross_p writers =
  Simsched.Sync_model.updates_per_sec
    (sharded_run ~scale ~calib ~shards ~cross_p ~large:None writers)

(* ---- large-batch chunking ablation ---- *)

(* Real store: a cross-shard batch overwriting multi-KB values (large
   enough that every undo image spills) is run at several [chunk_bytes]
   settings — the cost of streaming the mirror as many small chunk
   transactions versus few large ones, with the chunk/spill counts that
   prove the chains actually streamed. *)
type large_real_row = {
  lb_chunk_bytes : int;
  lb_ns : float;      (* one large cross-shard batch *)
  lb_chunks : float;  (* chunk records per batch *)
  lb_spills : float;  (* spilled undo images per batch *)
}

(* DES: the same store under a mixed workload where a fraction of the
   cross-shard batches carry a multi-chunk payload, streamed (the chunk
   chain: small updates interleave between chunks) versus monolithic
   (the payload holds one combiner slot and the queue waits).  The
   figure of merit is the small-update completion tail. *)
type large_des_row = {
  ld_arm : string;  (* "none" | "monolithic" | "streamed" *)
  ld_ups : float;
  ld_small_mean_ns : float;
  ld_small_max_ns : float;
}

let large_value tag len =
  String.init len (fun i -> Char.chr ((tag + (3 * i)) land 0xff))

let large_batch_real ~ops ~chunk_axis =
  let keys = 16 in
  let vlen = 6 * 1024 in
  List.map
    (fun chunk_bytes ->
      let regions =
        Array.init 2 (fun _ ->
            Pmem.Region.create ~fence:Pmem.Fence.stt ~size:(1 lsl 22) ())
      in
      let db = S.open_db ~initial_buckets:64 ~chunk_bytes regions in
      for i = 0 to keys - 1 do
        S.put db (key i) (large_value i vlen)
      done;
      (match
         List.sort_uniq compare
           (List.init keys (fun i -> S.shard_of_key db (key i)))
       with
       | [ _; _ ] -> ()
       | l ->
         failwith
           (Printf.sprintf "large batch spans %d shard(s)" (List.length l)));
      let round = ref 0 in
      let batch () =
        incr round;
        let r = !round in
        S.write_batch db (fun b ->
            for i = 0 to keys - 1 do
              S.put b (key i) (large_value (i + r) vlen)
            done)
      in
      for _ = 1 to 5 do
        batch ()
      done;
      Gc.full_major ();
      let snap () =
        Pmem.Stats.aggregate
          (Array.to_list (Array.map Pmem.Region.stats regions))
      in
      let s0 = snap () in
      let chunks0 = counted db Chunks_written in
      let spills0 = counted db Chunks_spilled in
      let n = max 4 (ops / 16) in
      let t0 = Workload.Bench_clock.now_ns () in
      for _ = 1 to n do
        batch ()
      done;
      let wall = Workload.Bench_clock.now_ns () -. t0 in
      let d = Pmem.Stats.since ~now:(snap ()) ~past:s0 in
      (* the batches really committed, unchunked readers see whole values *)
      for i = 0 to keys - 1 do
        if S.get db (key i) <> Some (large_value (i + !round) vlen) then
          failwith (Printf.sprintf "large batch lost %s" (key i))
      done;
      let per x = float_of_int x /. float_of_int n in
      { lb_chunk_bytes = chunk_bytes;
        lb_ns =
          (wall +. float_of_int d.Pmem.Stats.delay_ns) /. float_of_int n;
        lb_chunks = per (counted db Chunks_written - chunks0);
        lb_spills = per (counted db Chunks_spilled - spills0) })
    chunk_axis

let large_batch_des ~scale ~calib ~shards ~writers =
  let tx_unit = calib.batch_fixed_ns +. calib.update_work_ns in
  let mk streamed =
    { Simsched.Sync_model.large_p = 0.1; chunks = 16; chunk_tx_ns = tx_unit;
      streamed }
  in
  List.map
    (fun (arm, large) ->
      let r = sharded_run ~scale ~calib ~shards ~cross_p:0.2 ~large writers in
      { ld_arm = arm;
        ld_ups = Simsched.Sync_model.updates_per_sec r;
        ld_small_mean_ns = r.Simsched.Sync_model.small_mean_ns;
        ld_small_max_ns = r.Simsched.Sync_model.small_max_ns })
    [ ("none", None);
      ("monolithic", Some (mk false));
      ("streamed", Some (mk true)) ]

(* ---- elastic resize: online split/merge under load ---- *)

(* Real store: a populated 2-shard store is split online (shard 0's odd
   slots stream to a freshly attached shard) and later merged back.  The
   figures are the migration wall time, the keys it moved, and the
   single-key put cost before and after — the steady-state price of the
   extra routing-table hop plus the extra shard.  The split call is
   synchronous here, so the foreground dip itself is the DES's job. *)
type elastic_real = {
  e_keys : int;
  e_migrated : int;        (* keys the split streamed to the target *)
  e_split_ns : float;
  e_merge_ns : float;
  e_put_before_ns : float; (* single-key put, 2 shards, epoch 0 *)
  e_put_after_ns : float;  (* single-key put, 3 shards, epoch 1 *)
}

let elastic_real ~ops ~keys =
  let region_size = (keys * 256) + (1 lsl 21) in
  let db, regions = make_store ~region_size 2 in
  for i = 0 to keys - 1 do
    S.put db (key i) (value i)
  done;
  let rng = Workload.Keygen.create ~seed:19 () in
  let rkey () = key (Workload.Keygen.int rng keys) in
  let put_ns () =
    Gc.full_major ();
    Workload.Bench_clock.median_ns_per_op ~region:regions.(0) ~ops
      (fun () -> S.put db (rkey ()) "w")
  in
  let e_put_before_ns = put_ns () in
  let target = Pmem.Region.create ~fence:Pmem.Fence.stt ~size:region_size () in
  let born = ref (-1) in
  let e_split_ns =
    Workload.Bench_clock.time_ns ~region:regions.(0) (fun () ->
        born := S.split_shard db ~source:0 target)
  in
  let e_migrated = counted db Keys_migrated in
  if S.count db <> keys then failwith "elastic: split lost keys";
  if S.migration_pending db then failwith "elastic: split left intent";
  let e_put_after_ns = put_ns () in
  let e_merge_ns =
    Workload.Bench_clock.time_ns ~region:regions.(0) (fun () ->
        S.merge_shards db ~source:!born ~target:0)
  in
  if S.count db <> keys then failwith "elastic: merge lost keys";
  { e_keys = keys; e_migrated; e_split_ns; e_merge_ns; e_put_before_ns;
    e_put_after_ns }

(* DES: the same foreground workload with and without a background
   migration streaming through the combiners mid-run.  The move batches
   occupy the source combiner alongside foreground updates, so the
   resize arm completes fewer of them — the resize-under-load dip. *)
type elastic_des = {
  ed_move_batches : int;
  ed_base_ups : float;
  ed_resize_ups : float;   (* same run with the background migration *)
}

let elastic_des ~scale ~calib ~shards ~writers =
  let base = updates_per_sec ~scale ~calib ~shards ~cross_p:0.05 writers in
  (* a move batch is one source-side chunk transaction's worth of work:
     the batch-fixed cost plus eight per-pair payload units *)
  let move_batches = 64 in
  let resize =
    { Simsched.Sync_model.move_batches;
      move_tx_ns = calib.batch_fixed_ns +. (8. *. calib.update_work_ns);
      start_frac = 0.25 }
  in
  let r =
    sharded_run ~resize ~scale ~calib ~shards ~cross_p:0.05 ~large:None
      writers
  in
  { ed_move_batches = move_batches; ed_base_ups = base;
    ed_resize_ups = Simsched.Sync_model.updates_per_sec r }

(* ---- availability under a shard fault and its repair ---- *)

(* Real store: one shard of a settled 4-shard store rots (both twins of
   its deepest used line), the store is reopened, and we measure what
   the fault isolation actually buys — healthy-slot read cost while the
   sick shard is refused, the fraction of the key space still served,
   and the wall time of each self-healing arm: key evacuation onto a
   healthy shard (no snapshot available) and snapshot restore.  The
   comparison point is the same read cost before the damage and after
   the repair. *)
type availability_real = {
  a_keys : int;
  a_shards : int;
  a_healthy_get_ns : float;   (* single-key get, all shards healthy *)
  a_degraded_get_ns : float;  (* healthy-slot gets, one shard down *)
  a_available_frac : float;   (* keys still served while it is down *)
  a_evac_repair_ns : float;   (* repair wall time, evacuation arm *)
  a_evac_moved : int;         (* keys the evacuation placed *)
  a_restore_repair_ns : float;(* repair wall time, snapshot-restore arm *)
  a_post_repair_get_ns : float;
}

(* a settled store: seeded, crashed clean and reopened, so every line is
   durably fenced and at-rest rot is the only damage *)
let settled_store ~region_size ~keys nshards =
  let db, regions = make_store ~region_size nshards in
  for i = 0 to keys - 1 do
    S.put db (key i) (value i)
  done;
  Array.iter (fun r -> Pmem.Region.crash r Pmem.Region.Drop_all) regions;
  (S.open_db ~initial_buckets:1024 regions, regions)

(* rot both twins of the deepest used line of [sick]'s main span, the
   same at-rest damage the fault-isolation tests inject: scrub cannot
   repair it, so the shard comes back Degraded and repair escalates *)
let rot_shard db regions sick =
  match (S.media_spans db).(sick) with
  | (mbase, mspan) :: rest ->
    let ls = Pmem.Region.line_size regions.(sick) in
    let delta = mspan - ls in
    Pmem.Region.corrupt_line regions.(sick) ~line:((mbase + delta) / ls);
    (match rest with
     | (bbase, _) :: _ ->
       Pmem.Region.corrupt_line regions.(sick) ~seed:99
         ~line:((bbase + delta) / ls)
     | [] -> ())
  | [] -> failwith "availability: sick shard has no media spans"

let availability_real ~ops ~keys =
  let nshards = 4 in
  let region_size = (keys * 256) + (1 lsl 21) in
  let rng = Workload.Keygen.create ~seed:23 () in
  let get_ns db pick =
    Gc.full_major ();
    Workload.Bench_clock.median_ns_per_op ~region:(S.regions db).(0) ~ops
      (fun () -> ignore (S.get db (pick ())))
  in
  let any_key () = key (Workload.Keygen.int rng keys) in
  (* evacuation arm: no snapshot exists, so repair moves the keys *)
  let db, regions = settled_store ~region_size ~keys nshards in
  let a_healthy_get_ns = get_ns db any_key in
  let sick = 1 in
  rot_shard db regions sick;
  Array.iter (fun r -> Pmem.Region.crash r Pmem.Region.Drop_all) regions;
  let db = S.open_db ~initial_buckets:1024 regions in
  let healthy_keys =
    List.filter
      (fun k -> S.shard_of_key db k <> sick)
      (List.init keys key)
  in
  let harr = Array.of_list healthy_keys in
  let a_degraded_get_ns =
    get_ns db (fun () ->
        harr.(Workload.Keygen.int rng (Array.length harr)))
  in
  let served = ref 0 in
  for i = 0 to keys - 1 do
    match S.get db (key i) with
    | Some _ -> incr served
    | None -> ()
    | exception Kv.Sharded_db.Shard_unavailable _ -> ()
    | exception Pmem.Region.Media_error _ -> ()
  done;
  let a_available_frac = float_of_int !served /. float_of_int keys in
  let verdicts = ref [] in
  let a_evac_repair_ns =
    Workload.Bench_clock.time_ns ~region:regions.(0) (fun () ->
        verdicts := S.repair db)
  in
  let a_evac_moved =
    match List.assoc_opt sick !verdicts with
    | Some (S.Evacuated_keys { moved; _ }) -> moved
    | _ -> failwith "availability: no-snapshot repair did not evacuate"
  in
  let a_post_repair_get_ns = get_ns db any_key in
  (* restore arm: the same damage, but a snapshot family exists *)
  let db, regions = settled_store ~region_size ~keys nshards in
  let base = "BENCH_shards_avail_snapshot" in
  S.save_to_files db base;
  rot_shard db regions sick;
  Array.iter (fun r -> Pmem.Region.crash r Pmem.Region.Drop_all) regions;
  let db = S.open_db ~initial_buckets:1024 regions in
  let a_restore_repair_ns =
    Workload.Bench_clock.time_ns ~region:regions.(0) (fun () ->
        verdicts := S.repair ~snapshot_base:base db)
  in
  (match List.assoc_opt sick !verdicts with
   | Some S.Snapshot_restored -> ()
   | _ -> failwith "availability: snapshot repair did not restore");
  for s = 0 to nshards - 1 do
    Sys.remove (Pmem.Region.shard_snapshot_path base ~shard:s)
  done;
  if S.count db <> keys then failwith "availability: restore lost keys";
  { a_keys = keys; a_shards = nshards; a_healthy_get_ns; a_degraded_get_ns;
    a_available_frac; a_evac_repair_ns; a_evac_moved; a_restore_repair_ns;
    a_post_repair_get_ns }

(* ---- recovery timing on the real store ---- *)

let recovery_measure ~keys nshards =
  let region_size = ((keys / nshards) * 1024) + (1 lsl 21) in
  let db, regions =
    make_store ~fence:Pmem.Fence.clflush ~region_size nshards
  in
  for i = 0 to keys - 1 do
    S.put db (key i) (value i)
  done;
  (* crash with real work in flight on every shard *)
  Array.iteri
    (fun s r ->
      let k = key_for_shard db ~keys s in
      Pmem.Region.set_trap r 12;
      (match S.put db k "dirty" with
       | _ -> failwith "trap did not fire"
       | exception Pmem.Region.Crash_point -> ());
      Pmem.Region.clear_trap r)
    regions;
  Array.iter (fun r -> Pmem.Region.crash r Pmem.Region.Drop_all) regions;
  let per_shard =
    Array.mapi
      (fun s r ->
        Workload.Bench_clock.time_ns ~region:r (fun () ->
            S.recover_shard db s))
      regions
  in
  (* sanity: the store is whole again (the in-flight overwrites either
     took or were rolled back; the key population is unchanged) *)
  if S.count db <> keys then failwith "recovery lost keys";
  per_shard

(* ---- group-commit front-end ablation ---- *)

(* DES: the async group-commit front-end (Group_commit) over the sharded
   store — per-shard submission queues drained in windows, one fence
   sequence per window instead of per logical transaction.  Two sweeps:
   the ack-mode ablation (per-tx Sync vs Batch_sync vs Async at the
   headline shard/writer point) and the window-size sweep that shows the
   fence amortization saturating. *)
type group_des_row = {
  g_arm : string;  (* "sync" | "batch_sync" | "async" *)
  g_window : int;
  g_ups : float;
  g_small_mean_ns : float;
  g_small_max_ns : float;
}

(* Real store: the same front-end run for real, with the fence economy
   read back from the Stats counters — engine transactions (= fence
   sequences) per logical transaction is the figure the window buys
   down. *)
type group_real_row = {
  gr_mode : string;
  gr_txs : int;               (* logical transactions submitted *)
  gr_group_commits : int;     (* engine transactions (fence sequences) *)
  gr_mean_group : float;      (* logical txs per engine tx *)
  gr_engine_per_tx : float;   (* fence sequences per logical tx *)
  gr_fences_saved : int;
}

(* the batch arm drains at half the window (the txs threshold), the
   async arm only when the window fills — the latency/coalescing knob
   the ack-mode ablation turns *)
let group_ack_of_arm ~window = function
  | "sync" -> Simsched.Sync_model.Ack_sync
  | "batch_sync" -> Simsched.Sync_model.Ack_batch_txs (max 1 (window / 2))
  | "async" -> Simsched.Sync_model.Ack_async
  | arm -> invalid_arg ("unknown group arm " ^ arm)

let group_run ~scale ~calib ~shards ~window ~arm ~cross_p writers =
  Simsched.Sync_model.run
    { Simsched.Sync_model.model =
        Fc_group
          { shards; window; ack = group_ack_of_arm ~window arm; cross_p;
            intent_fixed_ns = calib.intent_fixed_ns };
      costs = costs_of calib; readers = 0; writers;
      duration_ns = Common.sim_duration_ns scale; seed = 13 }

(* Ablations run at the ROADMAP operating point (cross_p = 0.2): the
   window amortizes the per-round fence sequence on the shard queues AND
   the shared-intent bookkeeping (one mirror pair + one coordinator flip
   per merged group) on the cross queue — the second term is the larger
   saving, since the intent chain costs an order of magnitude more than
   a single-shard fence sequence. *)
let group_cross_p = 0.2

let group_des_ablation ~scale ~calib ~shards ~writers ~window =
  List.map
    (fun arm ->
      let r = group_run ~scale ~calib ~shards ~window ~arm
                ~cross_p:group_cross_p writers in
      { g_arm = arm; g_window = window;
        g_ups = Simsched.Sync_model.updates_per_sec r;
        g_small_mean_ns = r.Simsched.Sync_model.small_mean_ns;
        g_small_max_ns = r.Simsched.Sync_model.small_max_ns })
    [ "sync"; "batch_sync"; "async" ]

let group_window_sweep ~scale ~calib ~shards ~writers ~window_axis =
  List.map
    (fun window ->
      let r = group_run ~scale ~calib ~shards ~window ~arm:"batch_sync"
                ~cross_p:group_cross_p writers in
      { g_arm = "batch_sync"; g_window = window;
        g_ups = Simsched.Sync_model.updates_per_sec r;
        g_small_mean_ns = r.Simsched.Sync_model.small_mean_ns;
        g_small_max_ns = r.Simsched.Sync_model.small_max_ns })
    window_axis

module Front = Kv.Group_commit.Default

let group_real_stats ~ops =
  let txs = max 64 ops in
  List.map
    (fun (gr_mode, ack) ->
      let db, _ = make_store ~region_size:(1 lsl 21) 4 in
      let fe = Front.attach ~window:32 ~ack db in
      for i = 0 to txs - 1 do
        Front.put fe (key (i land 255)) (value i)
      done;
      Front.flush fe;
      let grouped c = Kv.Group_commit.Counters.get (Front.counters fe) c in
      let gc = grouped Group_commits in
      let logical = grouped Group_size_sum in
      { gr_mode; gr_txs = logical; gr_group_commits = gc;
        gr_mean_group =
          (if gc = 0 then 0. else float_of_int logical /. float_of_int gc);
        gr_engine_per_tx =
          (if logical = 0 then 0.
           else float_of_int gc /. float_of_int logical);
        gr_fences_saved = grouped Fences_saved })
    [ ("sync", Kv.Group_commit.Sync);
      ("batch_sync",
       Kv.Group_commit.Batch_sync { txs = 8; bytes = 1 lsl 16 });
      ("async", Kv.Group_commit.Async) ]

(* ---- output ---- *)

type scaling_row = {
  shards : int;
  writers : int;
  ups : float;
  ns_per_tx : float;
}

type cross_row = {
  c_shards : int;
  cross_p : float;
  c_ups : float;
}

type recovery_row = {
  r_shards : int;
  r_keys : int;
  per_shard_ns : float array;
}

let emit_json ~scale ~calib ~scaling ~cross ~large_real ~large_des
    ~elastic_r ~elastic_d ~avail ~group_des ~group_window ~group_real
    ~recovery path =
  let b = Buffer.create 4096 in
  (* a JSON array body: one [indent]ed element per line, comma-separated *)
  let rows indent xs obj =
    if xs <> [] then
      Printf.bprintf b "%s\n"
        (String.concat ",\n" (List.map (fun r -> indent ^ obj r) xs))
  in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"bench\": \"shards\",\n";
  Printf.bprintf b "  \"scale\": \"%s\",\n" scale;
  Buffer.add_string b "  \"ptm\": \"romL\",\n";
  Printf.bprintf b
    "  \"calibration\": {\"read_ns\": %.1f, \"update_work_ns\": %.1f, \
     \"batch_fixed_ns\": %.1f, \"intent_fixed_ns\": %.1f},\n"
    calib.read_ns calib.update_work_ns calib.batch_fixed_ns
    calib.intent_fixed_ns;
  Buffer.add_string b "  \"scaling\": [\n";
  rows "    " scaling (fun r ->
      Printf.sprintf
        "{\"shards\": %d, \"writers\": %d, \"updates_per_sec\": %.0f, \
         \"ns_per_tx\": %.1f}"
        r.shards r.writers r.ups r.ns_per_tx);
  Buffer.add_string b "  ],\n";
  Buffer.add_string b "  \"cross_batch\": [\n";
  rows "    " cross (fun r ->
      Printf.sprintf
        "{\"shards\": %d, \"cross_p\": %.2f, \"updates_per_sec\": %.0f}"
        r.c_shards r.cross_p r.c_ups);
  Buffer.add_string b "  ],\n";
  Buffer.add_string b "  \"large_batch\": {\n    \"real\": [\n";
  rows "      " large_real (fun r ->
      Printf.sprintf
        "{\"chunk_bytes\": %d, \"batch_ns\": %.0f, \"chunks_per_batch\": \
         %.1f, \"spills_per_batch\": %.1f}"
        r.lb_chunk_bytes r.lb_ns r.lb_chunks r.lb_spills);
  Buffer.add_string b "    ],\n    \"des\": [\n";
  rows "      " large_des (fun r ->
      Printf.sprintf
        "{\"arm\": \"%s\", \"updates_per_sec\": %.0f, \"small_mean_ns\": \
         %.0f, \"small_max_ns\": %.0f}"
        r.ld_arm r.ld_ups r.ld_small_mean_ns r.ld_small_max_ns);
  Buffer.add_string b "    ]\n  },\n";
  Buffer.add_string b "  \"elastic\": {\n";
  Printf.bprintf b
    "    \"real\": {\"keys\": %d, \"keys_migrated\": %d, \"split_ns\": \
     %.0f, \"merge_ns\": %.0f, \"put_ns_before\": %.1f, \
     \"put_ns_after\": %.1f},\n"
    elastic_r.e_keys elastic_r.e_migrated elastic_r.e_split_ns
    elastic_r.e_merge_ns elastic_r.e_put_before_ns elastic_r.e_put_after_ns;
  Printf.bprintf b
    "    \"des\": {\"move_batches\": %d, \"updates_per_sec_baseline\": \
     %.0f, \"updates_per_sec_resize\": %.0f, \"dip_ratio\": %.3f}\n"
    elastic_d.ed_move_batches elastic_d.ed_base_ups elastic_d.ed_resize_ups
    (elastic_d.ed_resize_ups /. elastic_d.ed_base_ups);
  Buffer.add_string b "  },\n";
  Buffer.add_string b "  \"availability\": {\n";
  Printf.bprintf b
    "    \"keys\": %d, \"shards\": %d, \"get_ns_healthy\": %.1f, \
     \"get_ns_degraded\": %.1f, \"get_ns_post_repair\": %.1f,\n"
    avail.a_keys avail.a_shards avail.a_healthy_get_ns
    avail.a_degraded_get_ns avail.a_post_repair_get_ns;
  Printf.bprintf b
    "    \"available_frac\": %.4f, \"repair_evacuate_ns\": %.0f, \
     \"keys_evacuated\": %d, \"repair_restore_ns\": %.0f\n"
    avail.a_available_frac avail.a_evac_repair_ns avail.a_evac_moved
    avail.a_restore_repair_ns;
  Buffer.add_string b "  },\n";
  Buffer.add_string b "  \"group_commit\": {\n    \"des_ack\": [\n";
  let des_row r =
    Printf.sprintf
      "{\"arm\": \"%s\", \"window\": %d, \"updates_per_sec\": %.0f, \
       \"small_mean_ns\": %.0f, \"small_max_ns\": %.0f}"
      r.g_arm r.g_window r.g_ups r.g_small_mean_ns r.g_small_max_ns
  in
  rows "      " group_des des_row;
  Buffer.add_string b "    ],\n    \"des_window\": [\n";
  rows "      " group_window des_row;
  Buffer.add_string b "    ],\n    \"real\": [\n";
  rows "      " group_real (fun r ->
      Printf.sprintf
        "{\"mode\": \"%s\", \"logical_txs\": %d, \"group_commits\": %d, \
         \"mean_group_size\": %.2f, \"engine_tx_per_logical\": %.3f, \
         \"fences_saved\": %d}"
        r.gr_mode r.gr_txs r.gr_group_commits r.gr_mean_group
        r.gr_engine_per_tx r.gr_fences_saved);
  Buffer.add_string b "    ]\n  },\n";
  Buffer.add_string b "  \"recovery\": [\n";
  rows "    " recovery (fun r ->
      let per =
        String.concat ", "
          (Array.to_list
             (Array.map (fun ns -> Printf.sprintf "%.0f" ns) r.per_shard_ns))
      in
      Printf.sprintf
        "{\"shards\": %d, \"keys\": %d, \"per_shard_ns\": [%s], \
         \"max_shard_ns\": %.0f, \"sum_ns\": %.0f}"
        r.r_shards r.r_keys per
        (Array.fold_left Float.max 0. r.per_shard_ns)
        (Array.fold_left ( +. ) 0. r.per_shard_ns));
  Buffer.add_string b "  ]\n}\n";
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Buffer.output_buffer oc b);
  Printf.printf "wrote %s\n%!" path

let run_at ~scale_name ~scale ~ops ~recovery_keys ~shard_axis ~writer_axis
    ~path =
  Common.section
    "shard scaling: hash-partitioned Sharded_db (romL per shard)";
  let calib = calibrate ~ops in
  Printf.printf "calibrated: read %s  batch fixed %s  per-update %s\n%!"
    (Common.ns calib.read_ns)
    (Common.ns calib.batch_fixed_ns)
    (Common.ns calib.update_work_ns);
  Printf.printf "  cross-shard intent extra: %s\n%!"
    (Common.ns calib.intent_fixed_ns);
  (* throughput vs shard count x writer count *)
  Common.subsection "update throughput (TX/s), single-key ops";
  let scaling = ref [] in
  Common.table ~header:"writers"
    ~cols:(List.map (fun s -> Printf.sprintf "%d shard" s) shard_axis)
    ~rows:
      (List.map
         (fun w ->
           ( string_of_int w,
             List.map
               (fun s ->
                 let ups =
                   updates_per_sec ~scale ~calib ~shards:s ~cross_p:0. w
                 in
                 scaling :=
                   { shards = s; writers = w; ups;
                     ns_per_tx = 1e9 /. ups }
                   :: !scaling;
                 ups)
               shard_axis ))
         writer_axis)
    Common.si;
  (* the headline scaling factor the partitioning is for *)
  let at shards writers =
    match
      List.find_opt
        (fun r -> r.shards = shards && r.writers = writers)
        !scaling
    with
    | Some r -> r.ups
    | None -> nan
  in
  let wmax = List.fold_left max 1 writer_axis in
  let smax = List.fold_left max 1 shard_axis in
  Printf.printf "%d writers: 1 shard %s TX/s -> %d shards %s TX/s (%.1fx)\n%!"
    wmax
    (Common.si (at 1 wmax))
    smax
    (Common.si (at smax wmax))
    (at smax wmax /. at 1 wmax);
  (* cross-shard batch ratio: how much of the partitioning win survives
     as batches cross shards *)
  Common.subsection
    (Printf.sprintf "cross-shard batch ratio (%d shards, %d writers)" smax
       wmax);
  let cross_axis = [ 0.; 0.05; 0.2; 0.5 ] in
  let cross =
    List.map
      (fun cross_p ->
        { c_shards = smax; cross_p;
          c_ups = updates_per_sec ~scale ~calib ~shards:smax ~cross_p wmax })
      cross_axis
  in
  Common.table ~header:"cross_p" ~cols:[ "TX/s" ]
    ~rows:
      (List.map (fun r -> (Printf.sprintf "%.2f" r.cross_p, [ r.c_ups ])) cross)
    Common.si;
  (* the ROADMAP target: cross-batch throughput at cross_p=0.2 within 2x
     of the cross_p=0 figure *)
  let ups_at p = (List.find (fun r -> r.cross_p = p) cross).c_ups in
  let base = ups_at 0. and at02 = ups_at 0.2 in
  Printf.printf
    "cross_p=0.20: %s TX/s = %.2fx of cross_p=0 (target >= 0.50x)\n%!"
    (Common.si at02) (at02 /. base);
  (* large batches: chunk-size sweep on the real store, plus the DES
     streamed-vs-monolithic tail-latency ablation *)
  Common.subsection "large cross-shard batches: chunked mirror streaming";
  let large_real =
    large_batch_real ~ops ~chunk_axis:[ 512; 2048; 8192; 16384 ]
  in
  Printf.printf "%-12s %14s %14s %14s\n" "chunk_bytes" "batch"
    "chunks/batch" "spills/batch";
  List.iter
    (fun r ->
      Printf.printf "%-12d %14s %14.1f %14.1f\n%!" r.lb_chunk_bytes
        (Common.ns r.lb_ns) r.lb_chunks r.lb_spills)
    large_real;
  let large_des =
    large_batch_des ~scale ~calib ~shards:smax ~writers:wmax
  in
  Printf.printf
    "%-12s %12s %14s %14s   (%d shards, %d writers, cross_p=0.20, 10%% \
     large)\n"
    "payload" "TX/s" "small mean" "small max" smax wmax;
  List.iter
    (fun r ->
      Printf.printf "%-12s %12s %14s %14s\n%!" r.ld_arm (Common.si r.ld_ups)
        (Common.ns r.ld_small_mean_ns)
        (Common.ns r.ld_small_max_ns))
    large_des;
  (let find a = List.find (fun r -> r.ld_arm = a) large_des in
   let st = find "streamed" and mono = find "monolithic" in
   Printf.printf
     "streaming cuts the small-update tail %.1fx under 10%% large batches\n%!"
     (mono.ld_small_max_ns /. st.ld_small_max_ns));
  (* elastic resize: the real split/merge plus the DES under-load dip *)
  Common.subsection "elastic resize: online shard split/merge";
  let elastic_r = elastic_real ~ops ~keys:(recovery_keys / 4) in
  Printf.printf
    "split moved %d/%d keys in %s; merge back in %s; put %s -> %s\n%!"
    elastic_r.e_migrated elastic_r.e_keys
    (Common.ns elastic_r.e_split_ns)
    (Common.ns elastic_r.e_merge_ns)
    (Common.ns elastic_r.e_put_before_ns)
    (Common.ns elastic_r.e_put_after_ns);
  let elastic_d = elastic_des ~scale ~calib ~shards:smax ~writers:wmax in
  Printf.printf
    "resize under load (%d shards, %d writers, %d move batches): %s -> %s \
     TX/s (%.2fx)\n%!"
    smax wmax elastic_d.ed_move_batches
    (Common.si elastic_d.ed_base_ups)
    (Common.si elastic_d.ed_resize_ups)
    (elastic_d.ed_resize_ups /. elastic_d.ed_base_ups);
  (* availability: serving cost and repair wall time around a shard fault *)
  Common.subsection "availability under a shard fault & self-healing repair";
  let avail = availability_real ~ops ~keys:(recovery_keys / 4) in
  Printf.printf
    "one of %d shards rotten: %.1f%% of %d keys still served; healthy-slot \
     get %s (was %s, post-repair %s)\n%!"
    avail.a_shards
    (100. *. avail.a_available_frac)
    avail.a_keys
    (Common.ns avail.a_degraded_get_ns)
    (Common.ns avail.a_healthy_get_ns)
    (Common.ns avail.a_post_repair_get_ns);
  Printf.printf
    "repair: evacuated %d surviving keys in %s; snapshot restore in %s\n%!"
    avail.a_evac_moved
    (Common.ns avail.a_evac_repair_ns)
    (Common.ns avail.a_restore_repair_ns);
  (* group commit: fence amortization through the async front-end *)
  Common.subsection
    (Printf.sprintf
       "async group-commit front-end (%d shards, %d writers, window 32, \
        cross_p %.2f)"
       smax wmax group_cross_p);
  let group_des =
    group_des_ablation ~scale ~calib ~shards:smax ~writers:wmax ~window:32
  in
  Printf.printf "%-12s %12s %14s %14s\n" "ack mode" "TX/s" "ack mean"
    "ack max";
  List.iter
    (fun r ->
      Printf.printf "%-12s %12s %14s %14s\n%!" r.g_arm (Common.si r.g_ups)
        (Common.ns r.g_small_mean_ns)
        (Common.ns r.g_small_max_ns))
    group_des;
  (let find a = List.find (fun r -> r.g_arm = a) group_des in
   let sy = find "sync" and ba = find "batch_sync" in
   Printf.printf
     "batch_sync lifts per-tx sync %.1fx at %d shards / %d writers\n%!"
     (ba.g_ups /. sy.g_ups) smax wmax);
  let group_window =
    group_window_sweep ~scale ~calib ~shards:smax ~writers:wmax
      ~window_axis:[ 1; 2; 4; 8; 16; 32; 64 ]
  in
  Common.table ~header:"window"
    ~cols:[ "TX/s" ]
    ~rows:
      (List.map
         (fun r -> (string_of_int r.g_window, [ r.g_ups ]))
         group_window)
    Common.si;
  let group_real = group_real_stats ~ops in
  Printf.printf "%-12s %10s %14s %14s %14s\n" "ack mode" "groups"
    "mean group" "fences/tx" "fences saved";
  List.iter
    (fun r ->
      Printf.printf "%-12s %10d %14.1f %14.3f %14d\n%!" r.gr_mode
        r.gr_group_commits r.gr_mean_group r.gr_engine_per_tx
        r.gr_fences_saved)
    group_real;
  (* recovery fan-out: per-shard work drops with 1/N *)
  Common.subsection
    (Printf.sprintf "per-shard recovery, %d keys, CLFLUSH pwbs, every \
                     shard crashed mid-transaction" recovery_keys);
  Printf.printf "%-8s %14s %14s\n" "shards" "max shard" "sum";
  let recovery =
    List.map
      (fun s ->
        let per_shard_ns = recovery_measure ~keys:recovery_keys s in
        let sum = Array.fold_left ( +. ) 0. per_shard_ns in
        let mx = Array.fold_left Float.max 0. per_shard_ns in
        Printf.printf "%-8d %14s %14s\n%!" s (Common.ns mx) (Common.ns sum);
        { r_shards = s; r_keys = recovery_keys; per_shard_ns })
      shard_axis
  in
  emit_json ~scale:scale_name ~calib ~scaling:(List.rev !scaling) ~cross
    ~large_real ~large_des ~elastic_r ~elastic_d ~avail ~group_des
    ~group_window ~group_real ~recovery path

let run scale =
  let ops, recovery_keys =
    match scale with
    | Common.Quick -> (1_000, 4_000)
    | Common.Full -> (8_000, 20_000)
  in
  let scale_name =
    match scale with Common.Quick -> "quick" | Common.Full -> "full"
  in
  run_at ~scale_name ~scale ~ops ~recovery_keys
    ~shard_axis:[ 1; 2; 4; 8 ] ~writer_axis:[ 1; 2; 4; 8; 16; 32 ]
    ~path:"BENCH_shards.json"

(* Tiny parameters so CI catches bitrot (including the JSON emission)
   without paying benchmark cost. *)
let smoke () =
  Common.smoke_json ~name:"shards"
    ~keys:
      [ "bench"; "scale"; "ptm"; "calibration"; "scaling"; "cross_batch";
        "large_batch"; "elastic"; "availability"; "group_commit"; "recovery" ]
    (fun path ->
      run_at ~scale_name:"smoke" ~scale:Common.Quick ~ops:60
        ~recovery_keys:256 ~shard_axis:[ 1; 2 ] ~writer_axis:[ 1; 4 ] ~path)

(* Quick regression check of the cross-batch curve for @bench-smoke: the
   real store must show protocol activity through its own counters
   (prepares, flips, lazy clears), recovery must drain the parked
   records and keep the batch writes, and the calibrated DES must keep
   cross-batch throughput at cross_p=0.2 at or above 0.50x its cross_p=0
   figure (8 shards, 32 writers) — the ROADMAP target, which a slide
   back toward a serialized protocol chain falls below.  Fails loudly
   (exception) so the alias catches a regression. *)
let cross_smoke () =
  Common.section "shards_cross: cross-batch protocol regression check";
  let fail what = failwith ("shards_cross: " ^ what) in
  (* real-store protocol activity *)
  let db, _ = make_store ~region_size:(1 lsl 21) 4 in
  for i = 0 to 255 do
    S.put db (key i) (value i)
  done;
  for r = 0 to 3 do
    S.write_batch db (fun b ->
        for i = 0 to 15 do
          S.put b (key ((r * 16) + i)) "x"
        done)
  done;
  let prepares = counted db Intent_prepares in
  let flips = counted db Coordinator_flips in
  let clears = counted db Deferred_clears in
  if prepares = 0 then fail "no intent PREPAREs";
  if flips = 0 then fail "no COMMIT flips";
  if clears = 0 then fail "no lazy CLEARs";
  S.recover ~parallel:false db;
  if S.pending_intents db <> 0 then fail "recovery left records hooked";
  for i = 0 to 63 do
    if S.get db (key i) <> Some "x" then fail "batch write lost"
  done;
  Printf.printf "  real store: prepares=%d flips=%d deferred_clears=%d: ok\n%!"
    prepares flips clears;
  (* DES at the ROADMAP's operating point *)
  let calib = calibrate ~ops:60 in
  let ups cross_p =
    updates_per_sec ~scale:Common.Quick ~calib ~shards:8 ~cross_p 32
  in
  let base = ups 0. and at02 = ups 0.2 in
  Printf.printf "  cross_p=0: %s TX/s, cross_p=0.2: %s TX/s\n%!"
    (Common.si base) (Common.si at02);
  let ratio = at02 /. base in
  if not (ratio >= 0.5) then
    failwith
      (Printf.sprintf
         "shards_cross: cross_p=0.2 throughput (%.0f TX/s) is %.2fx the \
          cross_p=0 figure (%.0f TX/s), below the 0.50x target"
         at02 ratio base);
  Printf.printf "shards_cross ok: cross_p=0.2 keeps %.2fx of cross_p=0\n%!"
    ratio

(* Quick regression check of the large-batch path for @bench-smoke: a
   real cross-shard batch of multi-KB values must stream more chunks at
   a smaller chunk_bytes (with its oversized undo images spilled) and
   commit intact, and in the calibrated DES the streamed chunk chain
   must show a smaller worst-case small-update latency than the same
   payload held as one monolithic combiner slot — the degradation
   property the chunked PREPARE exists to buy.  Fails loudly so the
   alias catches a regression. *)
let large_smoke () =
  Common.section "shards_large: chunked large-batch regression check";
  let rows = large_batch_real ~ops:48 ~chunk_axis:[ 512; 8192 ] in
  (match rows with
   | [ small; big ] ->
     Printf.printf
       "  chunk_bytes=%d: %.1f chunks/batch, %.1f spills; chunk_bytes=%d: \
        %.1f chunks/batch\n%!"
       small.lb_chunk_bytes small.lb_chunks small.lb_spills
       big.lb_chunk_bytes big.lb_chunks;
     if small.lb_chunks <= big.lb_chunks then
       failwith
         (Printf.sprintf
            "shards_large: %d-byte chunks streamed %.1f chunks/batch, not \
             more than %d-byte chunks' %.1f"
            small.lb_chunk_bytes small.lb_chunks big.lb_chunk_bytes
            big.lb_chunks);
     if small.lb_spills < 1. then
       failwith "shards_large: no undo images spilled for multi-KB values"
   | _ -> assert false);
  let calib = calibrate ~ops:60 in
  let des = large_batch_des ~scale:Common.Quick ~calib ~shards:8 ~writers:32 in
  List.iter
    (fun r ->
      Printf.printf "  %-10s %s TX/s  small mean %s  max %s\n%!" r.ld_arm
        (Common.si r.ld_ups)
        (Common.ns r.ld_small_mean_ns)
        (Common.ns r.ld_small_max_ns))
    des;
  let find a = List.find (fun r -> r.ld_arm = a) des in
  let st = find "streamed" and mono = find "monolithic" in
  if not (st.ld_small_max_ns < mono.ld_small_max_ns) then
    failwith
      (Printf.sprintf
         "shards_large: streamed small-update tail (%.0f ns) not below \
          monolithic (%.0f ns)"
         st.ld_small_max_ns mono.ld_small_max_ns);
  Printf.printf
    "shards_large ok: streaming cuts the small-update tail %.1fx\n%!"
    (mono.ld_small_max_ns /. st.ld_small_max_ns)

(* Quick regression check of the elastic-resize path for @bench-smoke: a
   real online split must bump the epoch, actually stream keys to the
   freshly attached shard, and leave every key readable exactly once;
   the merge back must do the same in reverse.  In the calibrated DES
   the run carrying the background migration must complete fewer
   foreground updates than the identical run without it — the
   resize-under-load dip the bench section quantifies.  Fails loudly so
   the alias catches a regression. *)
let elastic_smoke () =
  Common.section "shards_elastic: online split/merge regression check";
  let keys = 192 in
  let db, regions = make_store ~region_size:(1 lsl 21) 2 in
  for i = 0 to keys - 1 do
    S.put db (key i) (value i)
  done;
  let fail what = failwith ("shards_elastic: " ^ what) in
  let target =
    Pmem.Region.create ~fence:Pmem.Fence.stt ~size:(1 lsl 21) ()
  in
  let born = S.split_shard db ~source:0 target in
  if S.epoch db <> 1 then fail "split did not bump the epoch";
  if counted db Migrations_completed <> 1 then
    fail "split did not tick migrations_completed";
  if counted db Keys_migrated = 0 then fail "split moved no keys";
  if S.migration_pending db then fail "split left the intent hooked";
  let on_born = ref 0 in
  for i = 0 to keys - 1 do
    if S.get db (key i) <> Some (value i) then fail "split lost a key";
    if S.shard_of_key db (key i) = born then incr on_born
  done;
  if S.count db <> keys then fail "split changed the key count";
  if !on_born = 0 then fail "no key routes to the new shard";
  S.merge_shards db ~source:born ~target:0;
  if S.epoch db <> 2 then fail "merge did not bump the epoch";
  if counted db Migrations_completed <> 2 then
    fail "merge did not tick migrations_completed";
  if S.count db <> keys then fail "merge changed the key count";
  for i = 0 to keys - 1 do
    if S.get db (key i) <> Some (value i) then fail "merge lost a key"
  done;
  ignore (Sys.opaque_identity regions);
  Printf.printf
    "  split+merge streamed %d keys (%d were on shard %d), epoch %d\n%!"
    (counted db Keys_migrated) !on_born born (S.epoch db);
  let calib = calibrate ~ops:60 in
  let d = elastic_des ~scale:Common.Quick ~calib ~shards:4 ~writers:16 in
  Printf.printf
    "  DES resize dip: %s -> %s TX/s (%.2fx over %d move batches)\n%!"
    (Common.si d.ed_base_ups) (Common.si d.ed_resize_ups)
    (d.ed_resize_ups /. d.ed_base_ups)
    d.ed_move_batches;
  if not (d.ed_resize_ups > 0.) then
    fail "DES resize arm completed no updates";
  if not (d.ed_resize_ups <= d.ed_base_ups) then
    failwith
      (Printf.sprintf
         "shards_elastic: background migration sped the run up (%.0f -> \
          %.0f TX/s)"
         d.ed_base_ups d.ed_resize_ups);
  Printf.printf "shards_elastic ok: dip %.2fx\n%!"
    (d.ed_resize_ups /. d.ed_base_ups)

(* Quick regression check of the fault-isolation path for @bench-smoke:
   with one shard of a real store rotten, the healthy slots must keep
   serving (most of the key space stays available) while the sick slots
   are refused with the typed verdict, and both self-healing arms must
   converge — key evacuation when no snapshot exists, snapshot restore
   (full byte identity) when one does.  This is the availability
   property the health state machine exists to buy; fails loudly so the
   alias catches a regression. *)
let health_smoke () =
  Common.section "shards_health: fault isolation & self-healing check";
  let a = availability_real ~ops:48 ~keys:192 in
  Printf.printf
    "  %.1f%% of %d keys served with 1/%d shards down; degraded get %s \
     (healthy %s)\n%!"
    (100. *. a.a_available_frac) a.a_keys a.a_shards
    (Common.ns a.a_degraded_get_ns)
    (Common.ns a.a_healthy_get_ns);
  Printf.printf "  evacuation moved %d keys in %s; restore in %s\n%!"
    a.a_evac_moved
    (Common.ns a.a_evac_repair_ns)
    (Common.ns a.a_restore_repair_ns);
  let fail what = failwith ("shards_health: " ^ what) in
  (* with 1 of 4 shards down, at least the other shards' slots serve *)
  if a.a_available_frac < 0.5 then
    fail "less than half the key space served under a one-shard fault";
  if a.a_available_frac > 1. then fail "availability fraction above 1";
  if a.a_evac_moved = 0 then fail "evacuation moved no keys";
  if not (a.a_evac_repair_ns > 0. && a.a_restore_repair_ns > 0.) then
    fail "repair arms reported no wall time";
  Printf.printf "shards_health ok: %.1f%% available, both repair arms \
                 converged\n%!"
    (100. *. a.a_available_frac)

(* Quick regression check of the group-commit front-end for
   @bench-smoke: on the real store the fence economy must follow the
   ack mode (per-tx Sync pays one engine transaction per logical tx;
   Batch_sync and Async pay proportionally fewer, i.e. fences-per-tx
   drops with the achieved group size), and in the calibrated DES the
   Batch_sync arm must clear the ISSUE's >= 2x update-throughput bar
   over per-tx Sync at 8 shards / 32 writers.  Fails loudly so the
   alias catches a regression. *)
let group_smoke () =
  Common.section "shards_group: async group-commit regression check";
  let fail what = failwith ("shards_group: " ^ what) in
  (* real path: fence amortization proportional to group size *)
  let rows = group_real_stats ~ops:256 in
  Printf.printf "%-12s %8s %10s %12s %12s %14s\n" "ack mode" "txs"
    "groups" "mean group" "fences/tx" "fences saved";
  List.iter
    (fun r ->
      Printf.printf "%-12s %8d %10d %12.1f %12.3f %14d\n%!" r.gr_mode
        r.gr_txs r.gr_group_commits r.gr_mean_group r.gr_engine_per_tx
        r.gr_fences_saved)
    rows;
  let find m = List.find (fun r -> r.gr_mode = m) rows in
  let sy = find "sync" and ba = find "batch_sync" and asy = find "async" in
  if sy.gr_engine_per_tx <> 1. then
    fail "Sync did not pay one engine tx per logical tx";
  if sy.gr_fences_saved <> 0 then fail "Sync claimed saved fences";
  if not (ba.gr_mean_group > 1.) then
    fail "Batch_sync did not coalesce at all";
  if not (asy.gr_mean_group > ba.gr_mean_group) then
    fail "Async (window-bound) did not out-coalesce Batch_sync (txs=8)";
  (* fences-per-tx must drop as 1/group-size: the two are exact
     reciprocals by construction, so check the saved-fence count *)
  List.iter
    (fun r ->
      if r.gr_fences_saved <> r.gr_txs - r.gr_group_commits then
        fail (r.gr_mode ^ ": fences_saved <> logical - engine"))
    rows;
  (* DES: the acceptance bar at the headline operating point *)
  let calib = calibrate ~ops:60 in
  let des =
    group_des_ablation ~scale:Common.Quick ~calib ~shards:8 ~writers:32
      ~window:32
  in
  List.iter
    (fun r ->
      Printf.printf "  %-12s %s TX/s  ack mean %s  max %s\n%!" r.g_arm
        (Common.si r.g_ups)
        (Common.ns r.g_small_mean_ns)
        (Common.ns r.g_small_max_ns))
    des;
  let dfind a = List.find (fun r -> r.g_arm = a) des in
  let dsy = dfind "sync" and dba = dfind "batch_sync" in
  if not (dba.g_ups >= 2. *. dsy.g_ups) then
    failwith
      (Printf.sprintf
         "shards_group: Batch_sync (%.0f TX/s) below 2x per-tx Sync \
          (%.0f TX/s) at 8 shards / 32 writers"
         dba.g_ups dsy.g_ups);
  Printf.printf "shards_group ok: batch_sync %.1fx per-tx sync\n%!"
    (dba.g_ups /. dsy.g_ups)
