(* Elastic sharding (stated in [sharded_db.mli] and CORRECTNESS §13) and
   the only writer of the routing image: the persisted routing table,
   the migration window with its per-key forwarding, split, merge,
   evacuation, and recovery's migration reconciliation.

   A resize is a state machine persisted in two records:

     INTENT    one transaction on shard 0 hooks the migration intent
               (kind, source, target, new epoch, moving-slot bitmap).
               From here a crash always *completes* the migration:
               intent durable => the resize happens (roll-forward, so
               the oracle is deterministic).
     MOVE*     per bounded batch: one transaction on the source writes
               the CRC-protected cursor (the batch's keys and values)
               and deletes those keys from the source map — atomically,
               so the cursor IS the keys' only home if the crash lands
               before the target transaction — then one transaction on
               the target inserts each key unless the target already
               has it (a racing put won) or a tombstone marks it dead
               (a racing delete won).  Replaying a cursor is therefore
               idempotent.
     FLIP      one transaction on shard 0 persists the routing table
               under the new epoch — the migration's validity point.
     RECLAIM   post-flip, idempotent: sweep stale source copies, free
               the cursor, clear the tombstones, and unhook the intent
               (last, because the intent is recovery's trigger).

   The volatile window ([router.migration]) re-points the moving slots
   at the target as soon as the intent commits, so writes route on the
   new epoch (with per-key forwarding) and reads double-read. *)

open Shard_state

(* migration windows: after the intent record commits, after each move
   batch's source transaction (keys deleted from the source, cursor
   durable, target not yet updated), after each move batch's target
   transaction, after recovery replays the durable cursor, after the
   epoch-flip transaction (the migration's validity point), and after
   the post-flip reclamation pass *)
let fp_mig_intent = Fault.site "sharded.migrate.intent_open"
let fp_mig_moved = Fault.site "sharded.migrate.batch_moved"
let fp_mig_applied = Fault.site "sharded.migrate.batch_applied"
let fp_mig_resumed = Fault.site "sharded.migrate.resumed"
let fp_mig_flip = Fault.site "sharded.migrate.epoch_flip"
let fp_mig_reclaim = Fault.site "sharded.migrate.reclaimed"

(* evacuation windows: after its intent commits, and after its combined
   route+health flip (the evacuation's validity point) *)
let fp_health_evacuate_start = Fault.site "sharded.health.evacuate_start"
let fp_health_evacuated = Fault.site "sharded.health.evacuated"

module Make (P : SHARD_PTM) = struct
  module St = Shard_state.Make (P)
  module C = Shard_commit.Make (P)
  module H = Shard_health.Make (P)
  open St

  let tomb_map t target =
    Map_.open_or_create ~initial_buckets:t.config.initial_buckets
      (raw t target).p ~root:R.tomb_slot

  (* A single-key write to a moving slot during a transfer window routes
     on the new epoch with per-key forwarding: the target transaction is
     authoritative (a put clears the key's tombstone, a delete plants
     one), then the stale source copy is removed in its own transaction.
     A crash between the two is harmless — the target copy (or the
     tombstone) shadows the source under double-read, and recovery's
     resumed move stream re-deletes the source copy without overwriting
     the target (insert-if-absent). *)
  let forward_write t m k v =
    let tgt = raw t m.mig_target in
    let src = raw t m.mig_source in
    (match v with
    | Some value ->
      P.update_tx tgt.p (fun () ->
          ignore (Map_.put tgt.map k value : bool);
          ignore (Map_.remove m.mig_tomb k : bool))
    | None ->
      P.update_tx tgt.p (fun () ->
          ignore (Map_.remove tgt.map k : bool);
          ignore (Map_.put m.mig_tomb k "" : bool)));
    if Map_.mem src.map k then
      P.update_tx src.p (fun () -> ignore (Map_.remove src.map k : bool))

  (* Replace the persisted routing table.  Called at first open
     (multi-shard stores) and by each resize's epoch flip — a 1-shard
     store keeps the slot at 0 until it splits, staying bit-for-bit
     Romulus_db.  An evacuation writes route and health in one shard-0
     transaction of its own. *)
  let persist_route t ~epoch =
    let p0 = (raw t 0).p in
    P.update_tx p0 (fun () ->
        R.Route.write p0 ~epoch ~shards:(shards t) t.router.assignment)

  (* Rebuild the volatile routing image from shard 0's persisted record,
     or the identity epoch-0 table when none was ever written.  A table
     naming a shard beyond the attached regions means the store was
     reopened without a region a completed split added. *)
  let load_router t =
    let r = t.router in
    let n = shards t in
    let p0 = (raw t 0).p in
    (match R.Route.read p0 ~shards:n with
    | Some (epoch, assignment) ->
      r.epoch <- epoch;
      r.n_slots <- Array.length assignment;
      r.assignment <- assignment
    | None ->
      (* No table was ever flipped.  Usually the identity layout over the
         attached regions — but a crash inside the *first* migration
         leaves an intent and no table, and the identity must then be
         computed over the pre-resize shard count, which the intent's
         slot count encodes (n_slots = slots_per_shard * original n). *)
      let n_slots =
        Option.value (R.Intent.read_slots p0) ~default:(slots_per_shard * n)
      in
      let base = n_slots / slots_per_shard in
      if n_slots mod slots_per_shard <> 0 || base > n then
        R.refuse R.Intent.r 0 "slot count"
          "%d slots make an identity table over %d shards, store has %d \
           regions"
          n_slots base n;
      r.epoch <- 0;
      r.n_slots <- n_slots;
      r.assignment <- Array.init n_slots (fun s -> s mod base);
      (* Pin the identity table durably for multi-shard stores (1-shard
         stores stay metadata-free and bit-for-bit Romulus_db): a crash
         between a split's target-region attach and its intent commit
         must not let a later reopen-with-the-target-attached rebuild
         the identity over the wrong shard count.  Skipped while an
         intent is pending — the resumed migration's flip persists the
         final table itself. *)
      if base > 1 && R.root p0 R.mig_slot = 0 then persist_route t ~epoch:0);
    r.migration <- None

  let migration_pending t = R.root (raw t 0).p R.mig_slot <> 0

  (* The target half of a move or evacuation batch, idempotent on
     replay: one transaction inserts each pair unless the key is already
     decided — the target has it, or [tomb] marks it deleted by a racing
     write — and [counter] counts the inserts. *)
  let insert_absent t tgt ~tomb counter kvs =
    let inserted = ref 0 in
    P.update_tx tgt.p (fun () ->
        List.iter
          (fun (k, v) ->
            if
              not
                (Map_.mem tgt.map k
                || match tomb with Some tb -> Map_.mem tb k | None -> false)
            then begin
              ignore (Map_.put tgt.map k v : bool);
              incr inserted
            end)
          kvs);
    tick t counter !inserted

  (* One bounded move batch: [moved] is (key, value) pairs still living
     in the source.  Source transaction: replace the cursor (free the
     previous batch's) and delete the keys; target transaction: insert
     each unless a racing write already decided the key.  The target
     charge rides admission control with the shared typed-backoff
     retry. *)
  let move_batch t m moved =
    let src = raw t m.mig_source in
    let tgt = raw t m.mig_target in
    let plen =
      P.update_tx src.p (fun () ->
          let plen = R.Cursor.write src.p ~epoch:m.mig_epoch moved in
          List.iter
            (fun (k, _) -> ignore (Map_.remove src.map k : bool))
            moved;
          plen)
    in
    Fault.hit fp_mig_moved;
    let charge = [ (m.mig_target, plen) ] in
    Shard_commit.with_overload_retry ~seed:(m.mig_epoch + plen) (fun () ->
        C.admit t charge);
    Fun.protect
      ~finally:(fun () -> C.release t charge)
      (fun () ->
        insert_absent t tgt ~tomb:(Some m.mig_tomb) Keys_migrated moved);
    Fault.hit fp_mig_applied

  (* Stream every source key of a moving slot to the target in bounded
     batches (payload <= chunk_bytes, always at least one key).  Keys a
     racing write touches mid-stream are skipped naturally: a forwarded
     put or delete removes its key from the source before the stream
     reaches it.  A final re-collection pass confirms the source is
     drained. *)
  let run_move_loop t m =
    let src = raw t m.mig_source in
    let rec pass () =
      let left = ref [] in
      Map_.iter src.map (fun k v ->
          if m.moving.(slot_of_key t k) then left := (k, v) :: !left);
      match !left with
      | [] -> ()
      | kvs ->
        R.Cursor.batches ~limit:t.config.chunk_bytes
          (fun batch ->
            (* a racing write may have retired a key since collection *)
            let moved =
              List.filter (fun (k, _) -> Map_.mem src.map k) batch
            in
            if moved <> [] then move_batch t m moved)
          kvs;
        pass ()
    in
    pass ()

  (* Post-flip reclamation, idempotent (recovery re-runs it whole when a
     crash lands inside): finish any straggler source copies, free the
     cursor, clear the tombstones, and unhook the intent last — it is
     the durable evidence that reclamation may still be owed. *)
  let reclaim_migration t ~source ~target ~moving =
    let src = raw t source in
    let tgt = raw t target in
    let tomb = tomb_map t target in
    (* stale moving-slot copies left in the source: none in a crash-free
       run (the move stream deletes as it goes); after a crash, a copy
       whose key the target never decided is completed rather than
       dropped — exactly-once either way *)
    let stale = ref [] in
    Map_.iter src.map (fun k v ->
        if moving.(slot_of_key t k) then stale := (k, v) :: !stale);
    if !stale <> [] then begin
      let orphans =
        List.filter
          (fun (k, _) ->
            (not (Map_.mem tgt.map k)) && not (Map_.mem tomb k))
          !stale
      in
      if orphans <> [] then
        P.update_tx tgt.p (fun () ->
            List.iter
              (fun (k, v) -> ignore (Map_.put tgt.map k v : bool))
              orphans);
      P.update_tx src.p (fun () ->
          List.iter
            (fun (k, _) -> ignore (Map_.remove src.map k : bool))
            !stale)
    end;
    R.clear src.p R.Cursor.r;
    let tkeys = ref [] in
    Map_.iter tomb (fun k _ -> tkeys := k :: !tkeys);
    if !tkeys <> [] then
      P.update_tx tgt.p (fun () ->
          List.iter (fun k -> ignore (Map_.remove tomb k : bool)) !tkeys);
    R.clear (raw t 0).p R.Intent.r;
    Fault.hit fp_mig_reclaim

  (* Run a migration from an already-durable intent: open the window
     (moving slots route to the target from here), stream, flip (persist
     the routing table under the new epoch in one shard-0 transaction —
     the migration's validity point), reclaim. *)
  let run_migration t ~source ~target ~mepoch ~moving =
    let r = t.router in
    let m =
      { mig_source = source; mig_target = target; mig_epoch = mepoch;
        moving; mig_tomb = tomb_map t target }
    in
    r.migration <- Some m;
    Array.iteri (fun s mv -> if mv then r.assignment.(s) <- target) moving;
    run_move_loop t m;
    persist_route t ~epoch:mepoch;
    r.epoch <- mepoch;
    r.migration <- None;
    tick t Migrations_completed 1;
    Fault.hit fp_mig_flip;
    reclaim_migration t ~source ~target ~moving

  (* Make a migration intent durable (kind 0 = split, 1 = merge, 2 =
     evacuation), then [run] it towards the epoch it will flip to. *)
  let start t ~kind ~source ~target ~moving run =
    let mepoch = t.router.epoch + 1 in
    let s0 = raw t 0 in
    P.update_tx s0.p (fun () ->
        R.Intent.write s0.p ~kind ~source ~target ~epoch:mepoch moving);
    tick t Migrations_started 1;
    Fault.hit fp_mig_intent;
    run t ~source ~target ~mepoch ~moving

  let check_resizable t ~source =
    if t.batch <> None then
      invalid_arg "Sharded_db: cannot resize through a batch handle";
    if t.router.migration <> None then
      invalid_arg "Sharded_db: a migration is already in progress";
    if source < 0 || source >= shards t then
      invalid_arg (Printf.sprintf "Sharded_db: bad source shard %d" source)

  (* every slot of [shard] *)
  let all_slots t shard = Array.map (Int.equal shard) t.router.assignment

  (* Split half of [source]'s slots (every other owned slot) onto a new
     shard opened over [region], formatted under its own engine; returns
     the new shard's index.  Online: reads and single-key writes proceed
     during the stream. *)
  let split_shard t ~source region =
    if shards t >= max_shards then raise (Invalid_shards (shards t + 1));
    check_resizable t ~source;
    (* the move stream reads and deletes from the source: Healthy only *)
    ignore (rw t source : shard);
    (* every other slot [source] owns, from its second *)
    let owned = ref 0 in
    let moving =
      Array.map
        (fun a -> a = source && (incr owned; !owned land 1 = 0))
        t.router.assignment
    in
    if !owned < 2 then
      invalid_arg
        (Printf.sprintf
           "Sharded_db.split_shard: shard %d owns %d slot(s), cannot split"
           source !owned);
    let p = P.open_region region in
    let map =
      Map_.open_or_create ~initial_buckets:t.config.initial_buckets p
        ~root:R.db_root
    in
    t.shard_arr <- Array.append t.shard_arr [| Some { p; map; region } |];
    t.region_arr <- Array.append t.region_arr [| region |];
    H.add_shard t;
    C.add_shard t;
    let target = shards t - 1 in
    start t ~kind:0 ~source ~target ~moving run_migration;
    target

  (* Move every slot of [source] onto [target]; the source region stays
     attached (it may anchor the routing directory or host protocol
     records) but owns no slots and holds no keys afterwards. *)
  let merge_shards t ~source ~target =
    check_resizable t ~source;
    if target < 0 || target >= shards t then
      invalid_arg (Printf.sprintf "Sharded_db: bad target shard %d" target);
    if target = source then
      invalid_arg "Sharded_db.merge_shards: source = target";
    (* both endpoints take writes during the stream: Healthy only *)
    ignore (rw t source : shard);
    ignore (rw t target : shard);
    let moving = all_slots t source in
    if not (Array.mem true moving) then
      invalid_arg
        (Printf.sprintf "Sharded_db.merge_shards: shard %d owns no slots"
           source);
    start t ~kind:1 ~source ~target ~moving run_migration

  (* ---- evacuation: moving surviving keys off a dying shard ----

     Unlike split/merge, the source is Degraded: client writes to it are
     already refused, so there is no transfer window, no cursor and no
     tombstones — the source is treated as strictly read-only.  The
     stream is best-effort salvage: iteration keeps every key reached
     before the first rotten line on its path.  The flip is one shard-0
     transaction swinging the routing table (moving slots -> target,
     epoch+1) AND the source's durable [Evacuated] verdict atomically,
     so a reopen either routes to the source (pre-flip, intent re-runs
     the idempotent stream) or to the target with the source retired. *)
  let collect_salvageable src =
    let acc = ref [] in
    (try Map_.iter src.map (fun k v -> acc := (k, v) :: !acc)
     with Pmem.Region.Media_error _ -> ());
    List.rev !acc

  let run_evacuation t ~source ~target ~mepoch ~moving =
    let src = raw t source in
    let tgt = raw t target in
    Fault.hit fp_health_evacuate_start;
    let kvs = collect_salvageable src in
    (* bounded insert-if-absent batches (idempotent on re-run): a moving
       key can only be written through the source, which refuses, so a
       key already present in the target was placed by this stream *)
    R.Cursor.batches ~limit:t.config.chunk_bytes
      (insert_absent t tgt ~tomb:None Keys_evacuated)
      kvs;
    (* volatile route + verdict first (precedent: run_migration opening
       the window before its durable flip), then the atomic flip *)
    let r = t.router in
    Array.iteri (fun s mv -> if mv then r.assignment.(s) <- target) moving;
    H.retire t source ~target;
    let s0 = raw t 0 in
    P.update_tx s0.p (fun () ->
        R.Route.write s0.p ~epoch:mepoch ~shards:(shards t) r.assignment;
        H.write_record s0.p t);
    r.epoch <- mepoch;
    tick t Migrations_completed 1;
    tick t Shards_evacuated 1;
    Fault.hit fp_health_evacuated;
    (* retire the dying engine; residual source bytes are never touched
       again (its map still holds stale duplicates of the target's keys,
       which is why scans drop Evacuated shards) *)
    t.shard_arr.(source) <- None;
    R.clear s0.p R.Intent.r;
    Fault.hit fp_mig_reclaim;
    List.length kvs

  let start_evacuation t ~source ~target =
    if t.batch <> None then
      invalid_arg "Sharded_db: cannot evacuate through a batch handle";
    if source = 0 then
      invalid_arg "Sharded_db: shard 0 anchors the store and cannot be \
                   evacuated";
    if migration_pending t then
      invalid_arg "Sharded_db: a migration is already in progress";
    if not (healthy t target) then
      invalid_arg
        (Printf.sprintf "Sharded_db: evacuation target %d is not healthy"
           target);
    let moving = all_slots t source in
    start t ~kind:2 ~source ~target ~moving run_evacuation

  (* R3 of the repair ladder for sick shard [i]: evacuate onto [target]
     (or the first healthy shard that is not [i]) when it applies — a
     readable source engine, a healthy target, not shard 0, and no
     migration intent in flight; [(target, keys moved)] when it ran. *)
  let evacuate t ~target i =
    let ok j = j <> i && healthy t j in
    if i = 0 || Option.is_none t.shard_arr.(i) || migration_pending t then None
    else
      Option.map
        (fun tgt -> (tgt, start_evacuation t ~source:i ~target:tgt))
        (match target with
        | Some tgt ->
          if tgt < 0 || tgt >= shards t then
            invalid_arg
              (Printf.sprintf "Sharded_db.repair: bad target shard %d" tgt);
          if ok tgt then Some tgt else None
        | None -> List.find_opt ok (List.init (shards t) Fun.id))

  (* Recovery-side reconciliation of an in-flight migration.  Split and
     merge intents are rolled *forward* — but only when both endpoints
     are fully healthy: the move stream reads and deletes from the
     source and writes the target, so against rotten media it is
     *parked* instead (intent left hooked, window never opened, slots
     routing on the old epoch) until a repair pass heals the endpoints
     and re-drives this.  An evacuation intent (kind 2) re-runs the
     read-only salvage stream when the source engine is up and the
     target healthy; flipped, it owes only the intent unhook — the dying
     source is never written. *)
  let reconcile_migration t =
    match
      R.Intent.read (raw t 0).p ~shards:(shards t) ~n_slots:t.router.n_slots
        ~epoch:t.router.epoch
    with
    | None -> ()
    | Some (ioff, (kind, source, target, mepoch, moving)) ->
      if kind = 2 then begin
        if t.router.epoch >= mepoch then begin
          (* routing and the Evacuated verdict flipped durably together;
             only the intent unhook is owed *)
          let s0 = raw t 0 in
          tick t Migrations_resumed 1;
          P.update_tx s0.p (fun () -> R.drop s0.p R.Intent.r ioff);
          Fault.hit fp_mig_reclaim
        end
        else if Option.is_some t.shard_arr.(source) && healthy t target
        then begin
          tick t Migrations_resumed 1;
          Fault.hit fp_mig_resumed;
          ignore (run_evacuation t ~source ~target ~mepoch ~moving : int)
        end
        (* else parked: the salvage source is unopenable or the target is
           sick; a later repair pass re-drives the evacuation *)
      end
      else if not (healthy t source && healthy t target) then
        () (* parked split/merge; resumed by repair via reconcile *)
      else begin
        tick t Migrations_resumed 1;
        if t.router.epoch >= mepoch then
          reclaim_migration t ~source ~target ~moving
        else begin
          let tomb = tomb_map t target in
          (match R.Cursor.read (raw t source).p source with
          | Some (cepoch, moved) when cepoch = mepoch ->
            insert_absent t (raw t target) ~tomb:(Some tomb) Keys_migrated
              moved
          | _ -> ());
          Fault.hit fp_mig_resumed;
          run_migration t ~source ~target ~mepoch ~moving
        end
      end
end
