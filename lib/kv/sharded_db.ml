(* Sharded RomulusDB: the façade.  The protocols are stated once, in
   [sharded_db.mli] and CORRECTNESS §10.  This module keeps the
   per-operation path, the single-shard batch and the open/save entry
   points; each piece of the store's state has one owner below it:
   [Shard_state] (the store record, gates, counters, routing lookups),
   [Shard_commit] (the cross-shard commit), [Shard_health] (verdicts,
   recovery fan-out, scrub, repair) and [Shard_migration] (routing
   table, split, merge, evacuation).  [Shard_records] declares every
   on-media record. *)

include Shard_state

exception Overloaded = Shard_commit.Overloaded

let with_overload_retry = Shard_commit.with_overload_retry

let fp_recover_reconciled = Fault.site "sharded.recover.reconciled"

module Make (P : SHARD_PTM) = struct
  module St = Shard_state.Make (P)
  module C = Shard_commit.Make (P)
  module H = Shard_health.Make (P)
  module M = Shard_migration.Make (P)
  open St

  type nonrec t = Shard_commit.state t

  type repair_outcome = Shard_health.repair_outcome =
    | Scrub_repaired
    | Snapshot_restored
    | Evacuated_keys of { target : int; moved : int }
    | Unrepaired of health_cause

  let shards = shards
  let epoch t = t.router.epoch
  let route_slots t = t.router.n_slots
  let slot_of_key = slot_of_key
  let shard_of_slot t s = t.router.assignment.(s)
  let shard_of_key = shard_of_key
  let regions t = Array.copy t.region_arr

  let health t i =
    if i < 0 || i >= shards t then
      invalid_arg (Printf.sprintf "Sharded_db.health: bad shard %d" i);
    t.health_arr.(i)

  let stats t =
    Pmem.Stats.aggregate
      (Array.to_list (Array.map Pmem.Region.stats t.region_arr))

  let counters t = t.counters

  (* ---- the read path ----

     Kept here, routing inline, so a get calls no [Shard_*] module: only
     the route of [Shard_records] and the map, both from one FNV-1a pass
     over the key.  The read gate: Healthy and Degraded serve reads
     (Degraded reads of an actually lost line still surface
     [Media_error] — damage is never silently blessed).  During a transfer window a moving key
     may not have reached the target yet, so a target miss consults the
     tombstones (a racing delete is authoritative) and then the
     source. *)

  let live t i =
    match (t.health_arr.(i), t.shard_arr.(i)) with
    | (Healthy | Degraded _), Some s -> s
    | _ -> unavailable t i

  (* Full scans drop an evacuated shard (its residual map is a stale
     duplicate of its target's keys) but refuse — typed, loudly — on any
     other shard that cannot serve reads: a scan never silently misses
     keys. *)
  let scan_shard t i =
    match t.health_arr.(i) with
    | Quarantined (Evacuated _) -> None
    | _ -> Some (live t i)

  (* the map's bucket hash is Codec.Blob's: the FNV-1a without its sign
     bit *)
  let underlying_get t k =
    let r = t.router in
    let h = Pds.Codec.fnv1a k in
    let slot = Shard_records.route_of_fnv h mod r.n_slots in
    let hash = h land max_int in
    match r.migration with
    | Some m when m.moving.(slot) -> (
      match Map_.get_hashed (raw t m.mig_target).map ~hash k with
      | Some _ as v -> v
      | None ->
        tick t Double_reads 1;
        if Option.is_some (Map_.get_hashed m.mig_tomb ~hash k) then None
        else Map_.get_hashed (raw t m.mig_source).map ~hash k)
    | _ -> Map_.get_hashed (live t r.assignment.(slot)).map ~hash k

  (* the map's [mem] is its [get] tested for a value *)
  let underlying_mem t k = Option.is_some (underlying_get t k)

  let write_direct t k v =
    match t.router.migration with
    | Some m when m.moving.(slot_of_key t k) -> M.forward_write t m k v
    | _ -> C.write t (rw t (shard_of_key t k)) k v

  (* newest-first scan of the buffered operations *)
  let rec lookup_ops k = function
    | [] -> None
    | (k', v) :: _ when String.equal k' k -> Some v
    | _ :: rest -> lookup_ops k rest

  (* net effect of the buffer: the newest operation per key *)
  let net_ops b =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (k, v) -> if not (Hashtbl.mem tbl k) then Hashtbl.add tbl k v)
      b.ops;
    tbl

  let get t k =
    match t.batch with
    | None -> underlying_get t k
    | Some b -> (
      match lookup_ops k b.ops with
      | Some v -> v
      | None -> underlying_get t k)

  let put t k v =
    match t.batch with
    | None -> write_direct t k (Some v)
    | Some b -> b.ops <- (k, Some v) :: b.ops

  let delete t k =
    match t.batch with
    | None ->
      let existed = underlying_mem t k in
      write_direct t k None;
      existed
    | Some b ->
      let existed =
        match lookup_ops k b.ops with
        | Some v -> Option.is_some v
        | None -> underlying_mem t k
      in
      b.ops <- (k, None) :: b.ops;
      existed

  let count t =
    let base = ref 0 in
    for i = 0 to shards t - 1 do
      match scan_shard t i with
      | None -> ()
      | Some s -> base := !base + Map_.length s.map
    done;
    let base = !base in
    match t.batch with
    | None -> base
    | Some b ->
      Hashtbl.fold
        (fun k v acc ->
          let before = underlying_mem t k in
          let after = Option.is_some v in
          acc + Bool.to_int after - Bool.to_int before)
        (net_ops b) base

  (* Shards visited in index order, hash order within a shard.  Under a
     batch handle the buffered writes are overlaid: overwritten keys are
     filtered from the underlying pass, buffered puts appended last
     (oldest first) — order inside a batch is unspecified anyway. *)
  let iter_dir ~reverse t f =
    let emit map = Map_.iter ~reverse map f in
    let shard_seq g =
      let n = shards t in
      for j = 0 to n - 1 do
        match scan_shard t (if reverse then n - 1 - j else j) with
        | None -> ()
        | Some s -> g s
      done
    in
    match t.batch with
    | None -> shard_seq (fun s -> emit s.map)
    | Some b ->
      let net = net_ops b in
      shard_seq (fun s ->
          Map_.iter ~reverse s.map (fun k v ->
              if not (Hashtbl.mem net k) then f k v));
      List.iter
        (fun (k, _) ->
          match Hashtbl.find_opt net k with
          | Some (Some v) ->
            f k v;
            Hashtbl.remove net k (* emit each net put once *)
          | Some None | None -> ())
        (List.rev b.ops)

  let iter t f = iter_dir ~reverse:false t f
  let iter_reverse t f = iter_dir ~reverse:true t f

  (* Structural check of every healthy shard; a non-healthy shard's
     structure is by definition damaged (or its engine gone), so it is
     skipped rather than failing the check of the serving data. *)
  let check t =
    let ( let* ) = Result.bind in
    let rec go i =
      if i = shards t then Ok ()
      else
        match (t.shard_arr.(i), t.health_arr.(i)) with
        | Some s, Healthy ->
          let in_shard what =
            Result.map_error (Printf.sprintf "shard %d%s: %s" i what)
          in
          let* () = in_shard "" (Map_.check s.map) in
          let* () = in_shard " allocator" (P.allocator_check s.p) in
          let* () = C.check_masks i s in
          go (i + 1)
        | _ -> go (i + 1)
    in
    go 0

  (* ---- batches ---- *)

  (* stable split of [ops] (oldest first) into per-shard groups,
     ascending shard index, preserving operation order within a shard *)
  let group_by_shard t ops =
    let n = shards t in
    let groups = Array.make n [] in
    List.iter
      (fun ((k, _) as op) ->
        let i = shard_of_key t k in
        groups.(i) <- op :: groups.(i))
      ops;
    let out = ref [] in
    for i = n - 1 downto 0 do
      if groups.(i) <> [] then out := (i, List.rev groups.(i)) :: !out
    done;
    !out

  let commit_batch t b =
    let ops = List.rev b.ops in
    if ops <> [] then begin
      (* Epoch consistency: a batch whose keys touch slots inside an
         open transfer window cannot be grouped consistently under one
         epoch (its slices would interleave with the move stream), so it
         is refused with the typed [Overloaded] — retryable via
         {!with_overload_retry}; once the window closes the retry routes
         cleanly on the new epoch.  Batches on untouched slots group
         identically under both epochs and proceed. *)
      (match t.router.migration with
      | Some m when List.exists (fun (k, _) -> m.moving.(slot_of_key t k)) ops
        ->
        C.overloaded t m.mig_target
      | _ -> ());
      match group_by_shard t ops with
      | [] -> ()
      | [ (i, sops) ] ->
        (* one shard: a single ordinary transaction, no intent — exact
           Romulus_db semantics (and the only path with one shard) *)
        let s = rw t i in
        P.update_tx s.p (fun () -> List.iter (apply_op s) sops)
      | groups -> C.commit_groups t groups
    end

  let write_batch t f =
    match t.batch with
    | Some _ -> f t (* nested batch flattens, like a nested update_tx *)
    | None -> (
      let b = { ops = [] } in
      match f { t with batch = Some b } with
      | () -> commit_batch t b
      | exception e ->
        (* the buffered operations are simply discarded; surface the same
           typed abort a Romulus_db batch (one update_tx) would *)
        Romulus.Engine.raise_abort e (Printexc.get_backtrace ()))

  let pending_intents = C.pending_intents
  let flush_clears = C.flush_clears

  (* ---- recovery and repair ---- *)

  (* The routing table first (batch reconciliation may route), then the
     commit protocol (per-key truth must be settled before keys are
     streamed between shards), then any in-flight migration — which is
     always completed, so handles never see an open window after
     recovery.  [C.reset] refuses a legacy intent before anything is
     written. *)
  let reconcile t =
    C.reset t;
    M.load_router t;
    C.reconcile_mirrors t;
    M.reconcile_migration t

  let recover ?(parallel = true) t =
    H.recover ~parallel t;
    reconcile t;
    Fault.hit fp_recover_reconciled

  let recover_shard = H.recover_shard
  let media_spans = H.media_spans
  let scrub_shards = H.scrub_shards
  let scrub = H.scrub

  let repair ?(retries = default_overload_retries)
      ?(base_ns = default_overload_base_ns) ?(seed = 0) ?snapshot_base
      ?target t =
    if t.batch <> None then
      invalid_arg "Sharded_db: cannot repair through a batch handle";
    H.repair ~retries ~base_ns ~seed ~snapshot_base t
      ~evacuate:(M.evacuate t ~target)
      ~reconcile:(fun () -> reconcile t)

  let split_shard = M.split_shard
  let merge_shards = M.merge_shards
  let migration_pending = M.migration_pending
  let start_evacuation = M.start_evacuation

  (* ---- construction, snapshots ---- *)

  let open_db ?(initial_buckets = 1024)
      ?(chunk_bytes = default_chunk_bytes)
      ?(spill_threshold = default_spill_threshold)
      ?(admission_budget = default_admission_budget)
      ?(clear_flush_threshold = default_clear_flush_threshold) regions =
    let n = Array.length regions in
    if n = 0 || n > max_shards then raise (Invalid_shards n);
    if initial_buckets <= 0 then
      raise (Romulus_db.Invalid_buckets initial_buckets);
    if chunk_bytes < min_chunk_bytes then
      invalid_arg
        (Printf.sprintf "Sharded_db.open_db: chunk_bytes %d < minimum %d"
           chunk_bytes min_chunk_bytes);
    if spill_threshold <= 0 then
      invalid_arg "Sharded_db.open_db: spill_threshold must be positive";
    if admission_budget <= 0 then
      invalid_arg "Sharded_db.open_db: admission_budget must be positive";
    if clear_flush_threshold <= 0 then
      invalid_arg "Sharded_db.open_db: clear_flush_threshold must be positive";
    let t =
      { shard_arr = Array.make n None; region_arr = Array.copy regions;
        health_arr = Array.make n Healthy; batch = None;
        config =
          { initial_buckets; chunk_bytes; spill_threshold; admission_budget;
            clear_flush_threshold };
        (* filled by [reconcile]'s [M.load_router] before any use *)
        router = { epoch = 0; n_slots = 0; assignment = [||]; migration = None };
        counters = Counters.create (); commit = Shard_commit.create n }
    in
    H.open_shards t;
    reconcile t;
    t

  let save_to_files t base =
    Array.iteri
      (fun i region ->
        Pmem.Region.save_to_file region
          (Pmem.Region.shard_snapshot_path base ~shard:i))
      t.region_arr

  let open_from_files ?fence ?initial_buckets ?chunk_bytes
      ?spill_threshold ?admission_budget ?clear_flush_threshold ~shards base =
    if shards <= 0 || shards > max_shards then raise (Invalid_shards shards);
    (* validate the requested count against the file family before any
       region is opened: a snapshot family saved by an elastic store has
       one file per shard it had grown to, and opening a strict subset
       (or asking for more) would silently mis-route *)
    let found =
      let rec scan i =
        if Sys.file_exists (Pmem.Region.shard_snapshot_path base ~shard:i)
        then scan (i + 1)
        else i
      in
      scan 0
    in
    if found <> shards then raise (Shard_mismatch { requested = shards; found });
    let regions =
      Array.init shards (fun i ->
          (* a snapshot file that cannot even be loaded gives no region
             bytes to quarantine over, so the failure is typed and
             names the shard; content-level damage inside a loadable
             file is classified by [open_db] instead *)
          try
            Pmem.Region.load_from_file ?fence
              (Pmem.Region.shard_snapshot_path base ~shard:i)
          with
          | Pmem.Region.Crash_point as e -> raise e
          | e -> raise (Shard_open_failed { shard = i; cause = e }))
    in
    open_db ?initial_buckets ?chunk_bytes ?spill_threshold
      ?admission_budget ?clear_flush_threshold regions
end

(* The default sharded store: RomulusLog per shard, as in RomulusDB. *)
module Default = Make (Romulus.Logged)
