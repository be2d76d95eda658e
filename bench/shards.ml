(* Shard-scaling benchmark for the hash-partitioned Sharded_db: how far
   does splitting one RomulusDB into N independent per-shard engines
   lift update throughput, and what does partitioning buy at recovery
   time?

   The record BENCH_shards.json is one table, [sections]: each row is
   one top-level key, says whether its figures are measured on the real
   store or modeled by the Fc_sharded DES (one combiner per shard,
   calibrated from the real store), builds its JSON value, and checks
   the properties its figures exist to show.  One driver calibrates
   once, then runs, prints and checks every row and writes the record;
   the full, quick and smoke runs differ only in their [params]. *)

module S = Kv.Sharded_db.Default
module Json = Common.Json

let jint, jfix = Common.(jint, jfix)

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

let fill db keys =
  for i = 0 to keys - 1 do
    S.put db (key i) (value i)
  done

(* first populated key routing to [shard]; the key space is dense enough
   that every shard owns many *)
let key_for_shard db ~keys shard =
  let rec find i =
    if i >= keys then failwith "no key routes to shard"
    else if S.shard_of_key db (key i) = shard then key i
    else find (i + 1)
  in
  find 0

type params = {
  scale_name : string;   (* the record's "scale" *)
  scale : Common.scale;  (* DES run length *)
  ops : int;             (* measurement effort per real arm *)
  recovery_keys : int;   (* elastic and availability use a quarter *)
  shard_axis : int list;
  writer_axis : int list;
}

(* the DES operating point: the largest shard and writer counts *)
let smax p = List.fold_left max 1 p.shard_axis
let wmax p = List.fold_left max 1 p.writer_axis

(* ---- calibration on the real store ---- *)

(* the DES inputs: per-operation costs (a put's marginal cost inside a
   batch, a transaction's fixed cost), and the extra serialized cost of
   a 2-shard batch beyond its three engine transactions (two
   mirror+apply, one coordinator flip) *)
type calib = { costs : Simsched.Sync_model.costs; intent_fixed_ns : float }

let calibrate ~ops =
  let keys = 512 in
  let db1, r1 = make_store ~region_size:(1 lsl 21) 1 in
  fill db1 keys;
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
    fill db2 keys;
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
  { costs =
      { read_ns; update_work_ns; batch_fixed_ns;
        think_ns = Float.max Common.think_ns (0.25 *. read_ns) };
    intent_fixed_ns }

(* ---- the DES model ---- *)

let des p calib ~writers model =
  Simsched.Sync_model.run
    { Simsched.Sync_model.model; costs = calib.costs; readers = 0;
      writers; duration_ns = Common.sim_duration_ns p.scale; seed = 13 }

let sharded_run ?resize p calib ~shards ~cross_p ~large writers =
  des p calib ~writers
    (Fc_sharded
       { shards; cross_p; intent_fixed_ns = calib.intent_fixed_ns; large;
         resize })

let updates_per_sec p calib ~shards ~cross_p writers =
  Simsched.Sync_model.updates_per_sec
    (sharded_run p calib ~shards ~cross_p ~large:None writers)

(* a DES run's throughput and small-update (or ack) latencies *)
let des_row axes r =
  Json.Obj
    (axes
    @ [ ("updates_per_sec", jfix 0 (Simsched.Sync_model.updates_per_sec r));
        ("small_mean_ns", jfix 0 r.Simsched.Sync_model.small_mean_ns);
        ("small_max_ns", jfix 0 r.Simsched.Sync_model.small_max_ns) ])

(* ---- large-batch chunking ---- *)

let large_value tag len =
  String.init len (fun i -> Char.chr ((tag + (3 * i)) land 0xff))

(* Real store: a cross-shard batch overwriting multi-KB values (large
   enough that every undo image spills) is run at several [chunk_bytes]
   settings — the cost of streaming the mirror as many small chunk
   transactions versus few large ones, with the chunk/spill counts that
   prove the chains actually streamed. *)
let large_batch_real ~ops chunk_bytes =
  let keys = 16 in
  let vlen = 6 * 1024 in
  let regions =
    Array.init 2 (fun _ ->
        Pmem.Region.create ~fence:Pmem.Fence.stt ~size:(1 lsl 22) ())
  in
  let db = S.open_db ~initial_buckets:64 ~chunk_bytes regions in
  for i = 0 to keys - 1 do
    S.put db (key i) (large_value i vlen)
  done;
  let owners = List.init keys (fun i -> S.shard_of_key db (key i)) in
  if List.length (List.sort_uniq compare owners) <> 2 then
    failwith "large batch does not span both shards";
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
    Pmem.Stats.aggregate (Array.to_list (Array.map Pmem.Region.stats regions))
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
  let per x = jfix 1 (float_of_int x /. float_of_int n) in
  Json.Obj
    [ ("chunk_bytes", jint chunk_bytes);
      ("batch_ns",
       jfix 0 ((wall +. float_of_int d.Pmem.Stats.delay_ns) /. float_of_int n));
      ("chunks_per_batch", per (counted db Chunks_written - chunks0));
      ("spills_per_batch", per (counted db Chunks_spilled - spills0)) ]

(* DES: the same store under a mixed workload where a fraction of the
   cross-shard batches carry a multi-chunk payload, streamed (the chunk
   chain: small updates interleave between chunks) versus monolithic
   (the payload holds one combiner slot and the queue waits).  The
   figure of merit is the small-update completion tail. *)
let large_batch_des p calib =
  let tx_unit = calib.costs.batch_fixed_ns +. calib.costs.update_work_ns in
  let mk streamed =
    { Simsched.Sync_model.large_p = 0.1; chunks = 16; chunk_tx_ns = tx_unit;
      streamed }
  in
  List.map
    (fun (arm, large) ->
      des_row [ ("arm", Json.Str arm) ]
        (sharded_run p calib ~shards:(smax p) ~cross_p:0.2 ~large (wmax p)))
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
let elastic_real ~ops ~keys =
  let region_size = (keys * 256) + (1 lsl 21) in
  let db, regions = make_store ~region_size 2 in
  fill db keys;
  let rng = Workload.Keygen.create ~seed:19 () in
  let rkey () = key (Workload.Keygen.int rng keys) in
  let put_ns () =
    Gc.full_major ();
    Workload.Bench_clock.median_ns_per_op ~region:regions.(0) ~ops
      (fun () -> S.put db (rkey ()) "w")
  in
  let put_before = put_ns () in
  let target = Pmem.Region.create ~fence:Pmem.Fence.stt ~size:region_size () in
  let born = ref (-1) in
  let split_ns =
    Workload.Bench_clock.time_ns ~region:regions.(0) (fun () ->
        born := S.split_shard db ~source:0 target)
  in
  let migrated = counted db Keys_migrated in
  if S.count db <> keys then failwith "split lost keys";
  if S.migration_pending db then failwith "split left intent";
  let put_after = put_ns () in
  let merge_ns =
    Workload.Bench_clock.time_ns ~region:regions.(0) (fun () ->
        S.merge_shards db ~source:!born ~target:0)
  in
  if S.count db <> keys then failwith "merge lost keys";
  Json.Obj
    [ ("keys", jint keys); ("keys_migrated", jint migrated);
      ("split_ns", jfix 0 split_ns); ("merge_ns", jfix 0 merge_ns);
      ("put_ns_before", jfix 1 put_before); ("put_ns_after", jfix 1 put_after)
    ]

(* DES: the same foreground workload with and without a background
   migration streaming through the combiners mid-run.  The move batches
   occupy the source combiner alongside foreground updates, so the
   resize arm completes fewer of them — the resize-under-load dip, run
   at 4 shards / 16 writers (at 8 shards it is ~1%, too small to check). *)
let elastic_des p calib =
  let shards = 4 and writers = 16 in
  let base = updates_per_sec p calib ~shards ~cross_p:0.05 writers in
  (* a move batch is one source-side chunk transaction's worth of work:
     the batch-fixed cost plus eight per-pair payload units *)
  let move_batches = 64 in
  let resize =
    { Simsched.Sync_model.move_batches;
      move_tx_ns =
        calib.costs.batch_fixed_ns +. (8. *. calib.costs.update_work_ns);
      start_frac = 0.25 }
  in
  let ups =
    Simsched.Sync_model.updates_per_sec
      (sharded_run ~resize p calib ~shards ~cross_p:0.05 ~large:None writers)
  in
  Json.Obj
    [ ("move_batches", jint move_batches);
      ("updates_per_sec_baseline", jfix 0 base);
      ("updates_per_sec_resize", jfix 0 ups);
      ("dip_ratio", jfix 3 (ups /. base)) ]

(* ---- availability under a shard fault and its repair ---- *)

(* a settled store: seeded, crashed clean and reopened, so every line is
   durably fenced and at-rest rot is the only damage *)
let settled_store ~region_size ~keys nshards =
  let db, regions = make_store ~region_size nshards in
  fill db keys;
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
  | [] -> failwith "sick shard has no media spans"

(* Real store: one shard of a settled 4-shard store rots (both twins of
   its deepest used line), the store is reopened, and we measure what
   the fault isolation actually buys — healthy-slot read cost while the
   sick shard is refused, the fraction of the key space still served,
   and the wall time of each self-healing arm: key evacuation onto a
   healthy shard (no snapshot available) and snapshot restore.  The
   comparison point is the same read cost before the damage and after
   the repair. *)
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
  let healthy_get = get_ns db any_key in
  let sick = 1 in
  rot_shard db regions sick;
  Array.iter (fun r -> Pmem.Region.crash r Pmem.Region.Drop_all) regions;
  let db = S.open_db ~initial_buckets:1024 regions in
  let healthy_keys =
    Array.of_list
      (List.filter (fun k -> S.shard_of_key db k <> sick) (List.init keys key))
  in
  let degraded_get =
    get_ns db (fun () ->
        healthy_keys.(Workload.Keygen.int rng (Array.length healthy_keys)))
  in
  let served k =
    match S.get db k with
    | v -> v <> None
    | exception (Kv.Sharded_db.Shard_unavailable _ | Pmem.Region.Media_error _)
      -> false
  in
  let served = List.length (List.filter served (List.init keys key)) in
  let verdicts = ref [] in
  let evac_ns =
    Workload.Bench_clock.time_ns ~region:regions.(0) (fun () ->
        verdicts := S.repair db)
  in
  let evacuated =
    match List.assoc_opt sick !verdicts with
    | Some (S.Evacuated_keys { moved; _ }) -> moved
    | _ -> failwith "no-snapshot repair did not evacuate"
  in
  let post_repair_get = get_ns db any_key in
  (* restore arm: the same damage, but a snapshot family exists *)
  let db, regions = settled_store ~region_size ~keys nshards in
  let base = "BENCH_shards_avail_snapshot" in
  S.save_to_files db base;
  rot_shard db regions sick;
  Array.iter (fun r -> Pmem.Region.crash r Pmem.Region.Drop_all) regions;
  let db = S.open_db ~initial_buckets:1024 regions in
  let restore_ns =
    Workload.Bench_clock.time_ns ~region:regions.(0) (fun () ->
        verdicts := S.repair ~snapshot_base:base db)
  in
  (match List.assoc_opt sick !verdicts with
   | Some S.Snapshot_restored -> ()
   | _ -> failwith "snapshot repair did not restore");
  for s = 0 to nshards - 1 do
    Sys.remove (Pmem.Region.shard_snapshot_path base ~shard:s)
  done;
  if S.count db <> keys then failwith "restore lost keys";
  Json.Obj
    [ ("keys", jint keys); ("shards", jint nshards);
      ("get_ns_healthy", jfix 1 healthy_get);
      ("get_ns_degraded", jfix 1 degraded_get);
      ("get_ns_post_repair", jfix 1 post_repair_get);
      ("available_frac", jfix 4 (float_of_int served /. float_of_int keys));
      ("repair_evacuate_ns", jfix 0 evac_ns);
      ("keys_evacuated", jint evacuated);
      ("repair_restore_ns", jfix 0 restore_ns) ]

(* ---- recovery timing on the real store ---- *)

(* an N-shard store crashed with every shard dirty (a trap fires
   mid-transaction in each); each shard's engine recovery is timed
   separately — per-shard work shrinks with 1/N, which is what the
   parallel recover fan-out exploits *)
let recovery_measure ~keys nshards =
  let region_size = ((keys / nshards) * 1024) + (1 lsl 21) in
  let db, regions =
    make_store ~fence:Pmem.Fence.clflush ~region_size nshards
  in
  fill db keys;
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
    Array.to_list
      (Array.mapi
         (fun s r ->
           Workload.Bench_clock.time_ns ~region:r (fun () ->
               S.recover_shard db s))
         regions)
  in
  (* sanity: the store is whole again (the in-flight overwrites either
     took or were rolled back; the key population is unchanged) *)
  if S.count db <> keys then failwith "recovery lost keys";
  Json.Obj
    [ ("shards", jint nshards); ("keys", jint keys);
      ("per_shard_ns", Arr (List.map (jfix 0) per_shard));
      ("max_shard_ns", jfix 0 (List.fold_left Float.max 0. per_shard));
      ("sum_ns", jfix 0 (List.fold_left ( +. ) 0. per_shard)) ]

(* ---- group-commit front-end ---- *)

(* DES: the async group-commit front-end over the sharded store, at
   cross_p = 0.2 — per-shard queues drained in windows, one fence
   sequence (and on the cross queue one shared intent) per window.  The
   batch arm drains at half the window, the async arm only when the
   window fills. *)
let group_des p calib ~arm window =
  let ack =
    match arm with
    | "sync" -> Simsched.Sync_model.Ack_sync
    | "batch_sync" -> Ack_batch_txs (max 1 (window / 2))
    | "async" -> Ack_async
    | a -> invalid_arg ("unknown group arm " ^ a)
  in
  des_row
    [ ("arm", Json.Str arm); ("window", jint window) ]
    (des p calib ~writers:(wmax p)
       (Fc_group
          { shards = smax p; window; ack; cross_p = 0.2;
            intent_fixed_ns = calib.intent_fixed_ns }))

module Front = Kv.Group_commit.Default

(* Real store: the same front-end run for real, with the fence economy
   read back from its counters — engine transactions (= fence sequences)
   per logical transaction is the figure the window buys down. *)
let group_real ~ops (mode, ack) =
  let txs = max 64 ops in
  let db, _ = make_store ~region_size:(1 lsl 21) 4 in
  let fe = Front.attach ~window:32 ~ack db in
  for i = 0 to txs - 1 do
    Front.put fe (key (i land 255)) (value i)
  done;
  Front.flush fe;
  let grouped c = Kv.Group_commit.Counters.get (Front.counters fe) c in
  let gc = grouped Group_commits and logical = grouped Group_size_sum in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  Json.Obj
    [ ("mode", Str mode); ("logical_txs", jint logical);
      ("group_commits", jint gc);
      ("mean_group_size", jfix 2 (ratio logical gc));
      ("engine_tx_per_logical", jfix 3 (ratio gc logical));
      ("fences_saved", jint (grouped Fences_saved)) ]

(* ---- the section table ---- *)

type source = Real | Modeled | Mixed

let label = function
  | Real -> "real"
  | Modeled -> "modeled (DES)"
  | Mixed -> "real; its des* members modeled (DES)"

type section = {
  name : string;  (* its top-level key in the record *)
  source : source;
  title : string;
  run : params -> calib -> Json.t;
  (* the properties the figures exist to show: the headline figure, or
     [Failure] with the reason *)
  check : Json.t -> string;
}

let fail fmt = Printf.ksprintf failwith fmt
let need ok fmt = Printf.ksprintf (fun m -> if not ok then failwith m) fmt
let num k v = Json.to_num (Json.member k v)
let rows k v = Json.to_list (Json.member k v)
let last l = List.hd (List.rev l)

(* the row of [l] whose field [k] is [x] *)
let row k x l =
  match List.find_opt (fun r -> Json.member k r = x) l with
  | Some r -> r
  | None -> fail "no row with %s = %s" k (Json.to_string x)

let arm a l = row "arm" (Str a) l

let sections =
  [ { name = "calibration"; source = Real;
      title = "single-threaded costs on one romL store (the DES inputs)";
      run =
        (fun _ c ->
          Obj
            [ ("read_ns", jfix 1 c.costs.read_ns);
              ("update_work_ns", jfix 1 c.costs.update_work_ns);
              ("batch_fixed_ns", jfix 1 c.costs.batch_fixed_ns);
              ("intent_fixed_ns", jfix 1 c.intent_fixed_ns) ]);
      check =
        (fun v ->
          need (num "read_ns" v > 0. && num "update_work_ns" v > 0.)
            "non-positive read or update cost";
          "costs positive") };
    { name = "scaling"; source = Modeled;
      title = "update throughput (TX/s), single-key ops";
      run =
        (fun p c ->
          Arr
            (List.concat_map
               (fun w ->
                 List.map
                   (fun s ->
                     let ups = updates_per_sec p c ~shards:s ~cross_p:0. w in
                     Json.Obj
                       [ ("shards", jint s); ("writers", jint w);
                         ("updates_per_sec", jfix 0 ups);
                         ("ns_per_tx", jfix 1 (1e9 /. ups)) ])
                   p.shard_axis)
               p.writer_axis));
      (* at the most writers, more shards never lose throughput *)
      check =
        (fun v ->
          let l = Json.to_list v in
          let top = last l in
          let w = num "writers" top in
          let one =
            List.find (fun r -> num "shards" r = 1. && num "writers" r = w) l
          in
          let ups r = num "updates_per_sec" r in
          need (ups top >= ups one) "more shards lost throughput";
          Printf.sprintf "%g writers: 1 shard %s TX/s -> %g shards %s (%.1fx)"
            w (Common.si (ups one)) (num "shards" top)
            (Common.si (ups top)) (ups top /. ups one)) };
    { name = "cross_batch"; source = Modeled;
      title = "cross-shard batch ratio";
      run =
        (fun p c ->
          Arr
            (List.map
               (fun cross_p ->
                 Json.Obj
                   [ ("shards", jint (smax p)); ("cross_p", jfix 2 cross_p);
                     ("updates_per_sec",
                      jfix 0
                        (updates_per_sec p c ~shards:(smax p) ~cross_p
                           (wmax p))) ])
               [ 0.; 0.05; 0.2; 0.5 ]));
      (* how much of the partitioning win survives as batches cross
         shards: at least half at cross_p = 0.2, a bar a serialized
         protocol chain falls below *)
      check =
        (fun v ->
          let ups p =
            num "updates_per_sec" (row "cross_p" (Num p) (Json.to_list v))
          in
          let ratio = ups 0.2 /. ups 0. in
          need (ratio >= 0.5)
            "cross_p=0.20 keeps %.2fx of cross_p=0 (%.0f of %.0f TX/s), \
             below the 0.50x bar"
            ratio (ups 0.2) (ups 0.);
          Printf.sprintf "cross_p=0.20 keeps %.2fx of cross_p=0 (bar 0.50x)"
            ratio) };
    { name = "large_batch"; source = Mixed;
      title =
        "large cross-shard batches: chunked mirror streaming (DES: cross_p \
         0.20, 10% of cross batches large)";
      run =
        (fun p c ->
          Obj
            [ ("real",
               Arr
                 (List.map (large_batch_real ~ops:p.ops)
                    [ 512; 2048; 8192; 16384 ]));
              ("des", Arr (large_batch_des p c)) ]);
      (* smaller chunks stream longer chains of spilled images, and the
         streamed chain keeps the small-update tail below the monolithic
         payload's *)
      check =
        (fun v ->
          let real = rows "real" v in
          let chunks r = num "chunks_per_batch" r in
          need (chunks (List.hd real) > chunks (last real))
            "smaller chunks streamed no more chunks per batch";
          need (List.for_all (fun r -> num "spills_per_batch" r >= 1.) real)
            "no undo images spilled for multi-KB values";
          let tail a = num "small_max_ns" (arm a (rows "des" v)) in
          need (tail "streamed" < tail "monolithic")
            "streamed small-update tail not below monolithic";
          Printf.sprintf "streaming cuts the small-update tail %.1fx"
            (tail "monolithic" /. tail "streamed")) };
    { name = "elastic"; source = Mixed;
      title = "online split/merge (real: 2 shards; DES: 4 shards x 16 writers)";
      run =
        (fun p c ->
          Obj
            [ ("real", elastic_real ~ops:p.ops ~keys:(p.recovery_keys / 4));
              ("des", elastic_des p c) ]);
      (* the split streams keys, and a background migration costs the
         foreground some throughput but never all of it *)
      check =
        (fun v ->
          let d = Json.member "des" v in
          let base = num "updates_per_sec_baseline" d
          and resize = num "updates_per_sec_resize" d in
          need (num "keys_migrated" (Json.member "real" v) > 0.)
            "split moved no keys";
          need (resize > 0.) "DES resize arm completed no updates";
          need (resize <= base)
            "background migration sped the run up (%.0f -> %.0f TX/s)" base
            resize;
          Printf.sprintf "resize under load keeps %.2fx" (resize /. base)) };
    { name = "availability"; source = Real;
      title = "availability under a shard fault & self-healing repair";
      run =
        (fun p _ -> availability_real ~ops:p.ops ~keys:(p.recovery_keys / 4));
      (* with one of four shards down the others keep serving, and both
         repair arms (evacuation, snapshot restore) converge *)
      check =
        (fun v ->
          let frac = num "available_frac" v in
          need (frac >= 0.5)
            "less than half the key space served under a one-shard fault";
          need (frac <= 1.) "availability fraction above 1";
          need (num "keys_evacuated" v > 0.) "evacuation moved no keys";
          need
            (num "repair_evacuate_ns" v > 0. && num "repair_restore_ns" v > 0.)
            "repair arms reported no wall time";
          Printf.sprintf "%.1f%% of keys served with one of %g shards down"
            (100. *. frac) (num "shards" v)) };
    { name = "group_commit"; source = Mixed;
      title = "async group-commit front-end (DES: cross_p 0.20)";
      run =
        (fun p c ->
          let des arms windows =
            Json.Arr
              (List.concat_map
                 (fun arm -> List.map (group_des p c ~arm) windows)
                 arms)
          in
          Obj
            [ ("des_ack", des [ "sync"; "batch_sync"; "async" ] [ 32 ]);
              ("des_window", des [ "batch_sync" ] [ 1; 2; 4; 8; 16; 32; 64 ]);
              ("real",
               Arr
                 (List.map (group_real ~ops:p.ops)
                    [ ("sync", Kv.Group_commit.Sync);
                      ("batch_sync", Batch_sync { txs = 8; bytes = 1 lsl 16 });
                      ("async", Async) ])) ]);
      (* the fence economy follows the ack mode: per-tx Sync pays one
         engine transaction per logical tx, Batch_sync and Async
         proportionally fewer; in the DES Batch_sync at least doubles
         per-tx Sync *)
      check =
        (fun v ->
          let real = rows "real" v in
          let mode m k = num k (row "mode" (Str m) real) in
          let mean m = mode m "mean_group_size" in
          need (mode "sync" "engine_tx_per_logical" = 1.)
            "Sync did not pay one engine tx per logical tx";
          need (mode "sync" "fences_saved" = 0.) "Sync claimed saved fences";
          need (mean "batch_sync" > 1.) "Batch_sync did not coalesce at all";
          need (mean "async" > mean "batch_sync")
            "Async (window-bound) did not out-coalesce Batch_sync (txs=8)";
          List.iter
            (fun r ->
              need
                (num "fences_saved" r
                = num "logical_txs" r -. num "group_commits" r)
                "%s: fences_saved <> logical - engine"
                (Json.to_str (Json.member "mode" r)))
            real;
          let ups a = num "updates_per_sec" (arm a (rows "des_ack" v)) in
          need (ups "batch_sync" >= 2. *. ups "sync")
            "DES Batch_sync (%.0f TX/s) below 2x per-tx Sync (%.0f TX/s)"
            (ups "batch_sync") (ups "sync");
          Printf.sprintf "batch_sync lifts per-tx sync %.1fx"
            (ups "batch_sync" /. ups "sync")) };
    { name = "recovery"; source = Real;
      title = "per-shard recovery, CLFLUSH pwbs, every shard crashed \
               mid-transaction";
      run =
        (fun p _ ->
          Arr
            (List.map (recovery_measure ~keys:p.recovery_keys) p.shard_axis));
      check =
        (fun v ->
          let l = Json.to_list v in
          Printf.sprintf "slowest shard %.1fx faster at %g shards"
            (num "max_shard_ns" (List.hd l) /. num "max_shard_ns" (last l))
            (num "shards" (last l))) } ]

(* ---- the driver ---- *)

let in_section name f =
  try f () with e ->
    fail "shards: section %s: %s" name
      (match e with Failure m -> m | e -> Printexc.to_string e)

(* calibrate once; run, print and check every section; a record whose
   checks fail is not written *)
let run_at ~path p =
  Common.section "shard scaling: hash-partitioned Sharded_db (romL per shard)";
  let calib = calibrate ~ops:p.ops in
  Printf.printf "DES operating point: %d shards, %d writers\n" (smax p)
    (wmax p);
  let recorded =
    List.map
      (fun s ->
        Common.subsection
          (Printf.sprintf "%s [%s]: %s" s.name (label s.source) s.title);
        let v = in_section s.name (fun () -> s.run p calib) in
        Common.print_json v;
        let verdict = in_section s.name (fun () -> s.check v) in
        Printf.printf "%s ok: %s\n%!" s.name verdict;
        (s.name, v))
      sections
  in
  Common.write_json path
    (Obj
       (("bench", Json.Str "shards") :: ("scale", Str p.scale_name)
       :: ("ptm", Str "romL") :: recorded))

let run scale =
  let scale_name, ops, recovery_keys =
    match scale with
    | Common.Quick -> ("quick", 1_000, 4_000)
    | Common.Full -> ("full", 8_000, 20_000)
  in
  run_at ~path:"BENCH_shards.json"
    { scale_name; scale; ops; recovery_keys; shard_axis = [ 1; 2; 4; 8 ];
      writer_axis = [ 1; 2; 4; 8; 16; 32 ] }

(* Tiny parameters so CI catches bitrot without paying benchmark cost:
   every section still runs and is checked, at the 8-shard / 32-writer
   DES operating point the checks' bars are set for (the elastic row
   fixes its own). *)
let smoke () =
  Common.smoke_json ~name:"shards"
    ~keys:([ "bench"; "scale"; "ptm" ] @ List.map (fun s -> s.name) sections)
    (fun path ->
      run_at ~path
        { scale_name = "smoke"; scale = Common.Quick; ops = 64;
          recovery_keys = 768; shard_axis = [ 1; 8 ]; writer_axis = [ 1; 32 ] })
