(* The cross-shard commit protocol (stated in [sharded_db.mli] and
   CORRECTNESS §10) and the only owner of its volatile state: PREPARE,
   one body for every payload; COMMIT; the lazy-CLEAR queues; admission
   control; runtime rollback; and recovery's mirror reconciliation. *)

open Shard_state

(* Crash-window failpoints: between the per-shard commits, and inside
   recovery's resolution loop. *)
let fp_mirror_applied = Fault.site "sharded.d.mirror_applied"
let fp_flip_written = Fault.site "sharded.d.flip_written"
let fp_mirror_cleared = Fault.site "sharded.d.mirror_cleared"
let fp_rollback_undone = Fault.site "sharded.d.rollback_undone"
let fp_recover_resolved = Fault.site "sharded.recover.mirror_resolved"

(* chunk-chain windows: after each streamed chunk commit, after each
   spilled undo image, between the last streamed chunk and the final
   transaction, and after recovery garbage-collects an unsealed chain *)
let fp_chunk_written = Fault.site "sharded.chunk.written"
let fp_chunk_spilled = Fault.site "sharded.chunk.spilled"
let fp_seal_window = Fault.site "sharded.chunk.seal_window"
let fp_chunk_gc = Fault.site "sharded.chunk.gc"

exception Overloaded of { shard : int; in_flight : int; budget : int }

let with_overload_retry ?(retries = default_overload_retries)
    ?(base_ns = default_overload_base_ns) ?(seed = 0) ?on_wait f =
  Option.get
  @@ backoff_walk ~retries ~base_ns ~seed ?on_wait (fun ~last ->
         match f () with
         | v -> Some v
         | exception Overloaded _ when not last -> None)

(* attempts a batch makes to get under the per-shard in-flight budget
   before raising [Overloaded] *)
let admission_retries = 6

(* times a participant captures its undo images again after one went
   stale before its PREPARE fails the batch with [Overloaded] *)
let capture_retries = 3

(* A still-valid undo entry of an in-flight batch, consulted by racing
   single-key writes: [pu_valid] is the absolute offset of the entry's
   validity byte, which lives inside the payload chunk at [pu_chunk]
   of shard [pu_shard]'s mirror — the chunk whose CRC an invalidation
   must refresh. *)
type pending_undo = { pu_shard : int; pu_chunk : int; pu_valid : int }

(* Lost at a crash by definition: recovery's reconciliation rebuilds the
   persistent truth after [reset] empties this. *)
type state = {
  mutable next_batch_id : int;
  pending : (string, pending_undo) Hashtbl.t;
  (* per shard: committed-batch mirrors awaiting a piggybacked unhook *)
  mutable clearable_mirrors : (int * int) list array;
  (* (mirror_off, batch id) *)
  (* per coordinator shard: flips whose batches have no mirror left *)
  mutable clearable_flips : int list array; (* flip_off *)
  (* batch id -> (coordinator, flip_off, mirrors still hooked) *)
  live_flips : (int, int * int * int ref) Hashtbl.t;
  (* per shard: payload bytes of batches currently inside the commit
     protocol, charged by admission control *)
  mutable in_flight : int array;
}

let create n =
  { next_batch_id = 1; pending = Hashtbl.create 16;
    clearable_mirrors = Array.make n []; clearable_flips = Array.make n [];
    live_flips = Hashtbl.create 8; in_flight = Array.make n 0 }

(* index of the lowest set bit of a non-zero mask *)
let lowest_bit m =
  let rec go b = if m land (1 lsl b) <> 0 then b else go (b + 1) in
  go 0

module Make (P : SHARD_PTM) = struct
  module St = Shard_state.Make (P)
  open St

  (* a store a split grew: the new shard's queues start empty *)
  let add_shard t =
    let c = t.commit in
    c.clearable_mirrors <- Array.append c.clearable_mirrors [| [] |];
    c.clearable_flips <- Array.append c.clearable_flips [| [] |];
    c.in_flight <- Array.append c.in_flight [| 0 |]

  (* A single-key write that races an in-flight cross-shard batch on the
     same key must not be overwritten by that batch's rollback: inside
     the write's own transaction the batch's undo entry for the key is
     invalidated (one byte in the mirror), so neither the inline abort
     path nor crash recovery will replay the stale pre-image. *)
  let write t s k v =
    match Hashtbl.find_opt t.commit.pending k with
    | None -> apply_op s (k, v)
    | Some pu ->
      let sp = (raw t pu.pu_shard).p in
      P.update_tx sp (fun () ->
          R.Mirror.invalidate sp ~chunk:pu.pu_chunk ~valid:pu.pu_valid;
          apply_op s (k, v));
      Hashtbl.remove t.commit.pending k

  (* Participant masks of shard [i]'s hooked protocol records: a mirror
     carries its own shard's bit and names the lowest set bit as its
     coordinator (the minimum participant); a flip lives on its
     coordinator, so its mask carries that shard's bit. *)
  let check_masks i s =
    let p = s.p in
    let bad what off mask =
      failwith
        (Printf.sprintf "shard %d: %s at %d has participant mask %#x" i what
           off mask)
    in
    match
      P.read_tx p (fun () ->
          R.iter p R.Mirror.r i (fun off ->
              let mask = R.Mirror.mask p off in
              if
                mask land (1 lsl i) = 0
                || lowest_bit mask <> R.Mirror.coord p off
              then bad "mirror" off mask);
          R.iter p R.Flip.r i (fun off ->
              let mask = R.Flip.mask p off in
              if mask land (1 lsl i) = 0 then bad "flip" off mask))
    with
    | () -> Ok ()
    | exception (Failure e | Romulus.Engine.Recovery_error e) -> Error e

  (* Hooked protocol records across the whole store: every mirror and
     flip. *)
  let pending_intents t =
    let n = ref 0 in
    Array.iteri
      (fun i ->
        Option.iter (fun s ->
            n := !n + R.count s.p R.Mirror.r i + R.count s.p R.Flip.r i))
      t.shard_arr;
    !n

  (* pre-batch image of every distinct key of [slice] on its shard [s],
     oldest first *)
  let undo_of s slice =
    let seen = Hashtbl.create 16 in
    List.filter_map
      (fun (k, _) ->
        if Hashtbl.mem seen k then None
        else (Hashtbl.add seen k (); Some (k, Map_.get s.map k)))
      slice

  (* ---- the lazy CLEAR ---- *)

  (* Unhook every clearable record of shard [i] inside the caller's
     already-open transaction; the volatile bookkeeping is committed only
     by [finish_drain] after the transaction returns, so an abort (or a
     re-executing STM closure) leaves the plan intact. *)
  let drain_plan t i =
    (t.commit.clearable_mirrors.(i), t.commit.clearable_flips.(i))

  let drain_in_tx t i (mirrors, flips) =
    let p = (raw t i).p in
    List.iter (fun (off, _) -> R.Mirror.reclaim p i off) mirrors;
    List.iter (fun off -> R.unhook p R.Flip.r i off) flips

  let finish_drain t i (mirrors, flips) =
    let c = t.commit in
    c.clearable_mirrors.(i) <- [];
    c.clearable_flips.(i) <- [];
    let n = List.length mirrors + List.length flips in
    tick t Deferred_clears n;
    (* a batch whose last mirror is gone frees its flip for reclamation *)
    List.iter
      (fun (_, id) ->
        match Hashtbl.find_opt c.live_flips id with
        | None -> ()
        | Some (coord, flip_off, remaining) ->
          decr remaining;
          if !remaining = 0 then begin
            Hashtbl.remove c.live_flips id;
            c.clearable_flips.(coord) <- flip_off :: c.clearable_flips.(coord)
          end)
      mirrors;
    if n > 0 then Fault.hit fp_mirror_cleared

  (* Run a protocol transaction that piggybacks shard [i]'s parked
     lazy-CLEAR drain.  If the combined transaction overflows the redo
     log, retry [f] alone — the records stay parked for a later flush —
     so reclamation can never fail a batch that would fit by itself
     (shrinking the chunk size cannot shrink the drain). *)
  let tx_with_drain t i f =
    let s = raw t i in
    let (mirrors, flips) as plan = drain_plan t i in
    match
      P.update_tx s.p (fun () ->
          let r = f () in
          drain_in_tx t i plan;
          r)
    with
    | r ->
      finish_drain t i plan;
      r
    | exception
        Romulus.Engine.Tx_aborted { cause = Romulus.Redo_log.Overflow _; _ }
      when mirrors <> [] || flips <> [] ->
      P.update_tx s.p f

  (* Dedicated reclamation transaction for one shard's parked records —
     the bound on the lazy-CLEAR queues.  Unlike the piggybacked drain,
     this pays its own transaction, so it only runs when asked
     ([flush_clears]) or when a queue crosses the flush threshold. *)
  let flush_shard_clears t i =
    let (mirrors, flips) as plan = drain_plan t i in
    if mirrors <> [] || flips <> [] then begin
      let s = raw t i in
      P.update_tx s.p (fun () -> drain_in_tx t i plan);
      tick t Clear_flushes 1;
      finish_drain t i plan
    end

  (* Two passes: draining a batch's last mirror releases its flip into
     the coordinator's queue, which the first pass may already have
     visited — a second pass leaves the store fully reclaimed. *)
  let flush_clears t =
    for _ = 1 to 2 do
      for i = 0 to shards t - 1 do
        flush_shard_clears t i
      done
    done

  (* After a commit, flush any shard whose parked queue crossed the
     threshold — including shards the batch never touched, so a
     write-quiet shard's stale mirrors are still reclaimed. *)
  let maybe_flush_clears t =
    let c = t.commit in
    for i = 0 to shards t - 1 do
      if
        List.length c.clearable_mirrors.(i) + List.length c.clearable_flips.(i)
        >= t.config.clear_flush_threshold
      then flush_shard_clears t i
    done

  (* replay the still-valid undo entries of the sealed mirror at [off]
     and reclaim it (chunk chain and spills included), inside one
     transaction on shard [i]; reads the validity bytes back from the
     chain so racing invalidations are honored, and decodes nothing
     before the whole chain has verified *)
  let rollback_mirror_tx t i off =
    let s = raw t i in
    P.update_tx s.p (fun () ->
        let undo = R.Mirror.read s.p i ~shards:(shards t) off in
        List.iter
          (fun (valid, k, img) ->
            if valid then
              match img with
              | R.U_absent -> apply_op s (k, None)
              | R.U_inline v -> apply_op s (k, Some v)
              | R.U_spilled { off = soff; len } ->
                apply_op s (k, Some (R.Mirror.spilled s.p i ~off:soff ~len)))
          undo;
        R.Mirror.reclaim s.p i off)

  (* ---- PREPARE: one mirror per participant (CORRECTNESS §11.1) ----

     All of the payload but its last piece streams behind an unsealed
     shell; the final transaction checks the captured images [undo],
     writes the last piece, seals and applies the slice.  After a crash
     recovery collects the shell; after an exception it is reclaimed
     here, and a stale image captures again, [capture_retries] times. *)
  let prepare_shard t ~chunk_bytes i ~id ~coord ~mask slice undo =
    let s = raw t i in
    let spills img =
      Option.fold ~none:0 ~some:String.length img > t.config.spill_threshold
    in
    let stale =
      Overloaded
        { shard = i; in_flight = t.commit.in_flight.(i);
          budget = t.config.admission_budget }
    in
    let rec attempt restarts undo =
      let streamed =
        List.exists (fun (_, img) -> spills img) undo
        || R.mirror_payload_len ~ops:slice ~undo > chunk_bytes
      in
      let moff =
        if not streamed then 0
        else
          tx_with_drain t i (fun () ->
              R.Mirror.push s.p ~id ~coord ~mask ~sealed:0 ~plen:0 ~chunks:0)
      in
      try
        let spill (k, img) =
          match img with
          | Some v when spills img ->
            let off =
              P.update_tx s.p (fun () -> R.Mirror.add_spill s.p moff v)
            in
            tick t Chunks_spilled 1;
            Fault.hit fp_chunk_spilled;
            (k, R.U_spilled { off; len = String.length v })
          | img -> (k, R.image_of_opt img)
        in
        let payload, rel_offs =
          R.encode_mirror ~nshards:(shards t) ~ops:slice
            ~undo:(List.map spill undo)
        in
        (* every piece but the last holds exactly [chunk_bytes] and
           commits in its own transaction *)
        let pieces =
          Array.of_list (Shard_records.Chunk.split ~chunk_bytes payload)
        in
        let last = Array.length pieces - 1 in
        let chunks = Array.make (last + 1) 0 in
        let chunk j =
          let c = R.Mirror.write_chunk s.p pieces.(j) in
          if streamed then
            R.Mirror.link_chunk s.p moff
              ~prev:(if j = 0 then 0 else chunks.(j - 1))
              c;
          c
        in
        for j = 0 to last - 1 do
          chunks.(j) <- P.update_tx s.p (fun () -> chunk j);
          tick t Chunks_written 1;
          Fault.hit fp_chunk_written
        done;
        if streamed then Fault.hit fp_seal_window;
        let plen = String.length payload in
        let final () =
          List.iter
            (fun (k, img) ->
              if not (Option.equal String.equal (Map_.get s.map k) img) then
                raise stale)
            undo;
          chunks.(last) <- chunk last;
          let o =
            if streamed then (R.Mirror.seal s.p moff ~plen; moff)
            else
              R.Mirror.push s.p ~id ~coord ~mask ~sealed:1 ~plen
                ~chunks:chunks.(last)
          in
          List.iter (apply_op s) slice;
          o
        in
        let moff =
          if streamed then P.update_tx s.p final else tx_with_drain t i final
        in
        tick t Chunks_written 1;
        ( moff,
          List.map
            (fun (k, rel) ->
              let c = chunks.(rel / chunk_bytes) in
              (k, c, R.Mirror.byte c (rel mod chunk_bytes)))
            rel_offs )
      with
      | Pmem.Region.Crash_point -> raise Pmem.Region.Crash_point
      | e -> (
        if streamed then
          P.update_tx s.p (fun () -> R.Mirror.reclaim s.p i moff);
        match e with
        | Romulus.Engine.Tx_aborted { cause; _ }
          when cause == stale && restarts < capture_retries ->
          tick t Prepare_restarts 1;
          attempt (restarts + 1) (undo_of s slice)
        | e -> raise e)
    in
    attempt 0 undo

  let cross_shard_batch t ~chunk_bytes groups =
    let c = t.commit in
    let id = c.next_batch_id in
    c.next_batch_id <- id + 1;
    let coord, _, _ = List.hd groups in
    let mask = List.fold_left (fun m (i, _, _) -> m lor (1 lsl i)) 0 groups in
    let applied = ref [] in
    (* keys whose pending-undo entries this batch registered *)
    let registered = ref [] in
    let unregister () =
      List.iter (fun k -> Hashtbl.remove c.pending k) !registered;
      registered := []
    in
    match
      (* PREPARE+APPLY: a sealed mirror always means an applied slice.
         Stale records of earlier committed batches are reclaimed inside
         the protocol transactions (the lazy CLEAR). *)
      List.iter
        (fun (i, slice, undo) ->
          let moff, valids =
            prepare_shard t ~chunk_bytes i ~id ~coord ~mask slice undo
          in
          applied := (i, moff) :: !applied;
          tick t Intent_prepares 1;
          (* expose the undo entries to racing single-key writes *)
          List.iter
            (fun (k, coff, aoff) ->
              Hashtbl.replace c.pending k
                { pu_shard = i; pu_chunk = coff; pu_valid = aoff };
              registered := k :: !registered)
            valids;
          Fault.hit fp_mirror_applied)
        groups
    with
    | () -> (
      (* COMMIT: one flip transaction on the coordinator — the batch's
         durability point.  Also a piggyback opportunity for the
         coordinator's own stale records. *)
      let sc = raw t coord in
      let flip_off =
        tx_with_drain t coord (fun () -> R.Flip.push sc.p ~id ~mask)
      in
      tick t Coordinator_flips 1;
      unregister ();
      Fault.hit fp_flip_written;
      (* CLEAR is deferred: each mirror rides its shard's next PREPARE;
         the flip follows once every mirror is gone.  Queues are bounded:
         any shard past the flush threshold is drained by a dedicated
         transaction right away. *)
      let participants = !applied in
      Hashtbl.replace c.live_flips id
        (coord, flip_off, ref (List.length participants));
      List.iter
        (fun (i, off) ->
          c.clearable_mirrors.(i) <- (off, id) :: c.clearable_mirrors.(i))
        participants;
      maybe_flush_clears t)
    | exception Pmem.Region.Crash_point ->
      (* dead machine: recovery presumed-aborts the hooked mirrors *)
      raise Pmem.Region.Crash_point
    | exception e ->
      (* Runtime abort: the failing shard's own transaction already
         rolled back (mirror and slice together); the shards that did
         apply are rolled back from their own mirrors — honoring undo
         entries invalidated by racing writes — and the mirror unhooked,
         atomically per shard.  A crash inside this rollback leaves the
         remaining mirrors, with no flip, for recovery to presumed-abort
         idempotently. *)
      let backtrace = Printexc.get_backtrace () in
      List.iter
        (fun (i, off) ->
          rollback_mirror_tx t i off;
          tick t Rolled_back 1;
          Fault.hit fp_rollback_undone)
        !applied;
      unregister ();
      Romulus.Engine.raise_abort e backtrace

  (* ---- admission control ----

     Every cross-shard batch is charged its per-shard mirror footprint
     (the exact inline-encoded payload length) against a volatile
     per-shard in-flight budget *before any persistent effect*.  A batch
     that cannot fit spins through a bounded backoff and then fails with
     the typed [Overloaded] — raised directly, not wrapped in
     [Tx_aborted], because nothing was written.  A single batch larger
     than the whole budget fails immediately: no backoff can help it. *)

  let overloaded t i =
    let budget = t.config.admission_budget in
    tick t Overload_rejections 1;
    raise (Overloaded { shard = i; in_flight = t.commit.in_flight.(i); budget })

  let admit t charges =
    let budget = t.config.admission_budget in
    let infl = t.commit.in_flight in
    let rec attempt round =
      match
        List.find_opt (fun (i, c) -> infl.(i) + c > budget) charges
      with
      | None -> List.iter (fun (i, c) -> infl.(i) <- infl.(i) + c) charges
      | Some (i, c) ->
        if round < admission_retries && c <= budget then begin
          (* (round + 1) * 64 pauses *)
          backoff_wait_ns ((round + 1) * 6400);
          attempt (round + 1)
        end
        else overloaded t i
    in
    attempt 0

  let release t charges =
    let infl = t.commit.in_flight in
    List.iter (fun (i, c) -> infl.(i) <- infl.(i) - c) charges

  (* A batch over several shards, [groups] in ascending shard order. *)
  let commit_groups t groups =
    (* every participant must accept writes before any intent or mirror
       is made durable: a batch never partially lands on the healthy
       subset of its shards *)
    List.iter (fun (i, _) -> ignore (rw t i : shard)) groups;
    (* the one capture: it sizes admission, each final PREPARE checks it *)
    let groups =
      List.map (fun (i, slice) -> (i, slice, undo_of (raw t i) slice)) groups
    in
    let charges =
      List.map
        (fun (i, slice, undo) -> (i, R.mirror_payload_len ~ops:slice ~undo))
        groups
    in
    admit t charges;
    Fun.protect
      ~finally:(fun () -> release t charges)
      (fun () ->
        (* A redo-log overflow inside PREPARE aborts cleanly (the
           batch-level handler already rolled every applied mirror back),
           so retry with smaller chunks, bounding each protocol
           transaction.  When even [min_chunk_bytes] overflows (the slice
           itself is too wide for the redo log) the typed [Tx_aborted]
           carries the cause. *)
        let rec attempt chunk_bytes =
          try cross_shard_batch t ~chunk_bytes groups
          with
          | Romulus.Engine.Tx_aborted { cause = Romulus.Redo_log.Overflow _; _ }
            when chunk_bytes > min_chunk_bytes ->
            attempt (max min_chunk_bytes (chunk_bytes / 4))
        in
        attempt t.config.chunk_bytes)

  (* ---- recovery ---- *)

  (* A set shard-0 [intent_slot] is a PREPARED or COMMITTED record of
     the removed shard-0 intent protocol.  Nothing here can finish it,
     and ignoring it would leave its batch half-applied, so the image is
     refused — before anything is written.  Otherwise the volatile state,
     which may hold offsets of records reconciliation is about to free,
     is emptied. *)
  let reset t =
    (match R.root (raw t 0).p R.intent_slot with
    | 0 -> ()
    | off ->
      raise
        (Shard_open_failed
           { shard = 0;
             cause =
               Romulus.Engine.Recovery_error
                 (Printf.sprintf
                    "sharded: legacy shard-0 batch intent at offset %d (root \
                     slot %d) left by the removed centralized protocol; \
                     this store cannot reconcile it"
                    off R.intent_slot) }));
    let c = t.commit in
    Hashtbl.reset c.pending;
    Hashtbl.reset c.live_flips;
    Array.fill c.clearable_mirrors 0 (Array.length c.clearable_mirrors) [];
    Array.fill c.clearable_flips 0 (Array.length c.clearable_flips) [];
    Array.fill c.in_flight 0 (Array.length c.in_flight) 0

  (* Resolve every hooked mirror against its coordinator's flip list,
     then clear the flips.  Phase order matters — a flip may only be
     removed once no mirror of its batch remains anywhere, or a crash
     between the two phases would turn a committed batch into a presumed
     abort.  Each mirror is resolved in one transaction on its shard,
     whose read of the chain is its check: committed, the chain is
     verified and the mirror reclaimed; aborted, [rollback_mirror_tx]
     replays its still-valid undo images.

     Health interplay: a mirror is never presumed aborted while its
     coordinator's flip list is unreadable (engine down) — absence of
     evidence is not evidence of abort — and a mirror whose resolution
     trips rotten media is left hooked.  Any such skip also parks phase
     2 wholesale: a flip may only be reclaimed once no mirror of its
     batch can remain anywhere. *)
  let reconcile_mirrors t =
    let n = shards t in
    let skipped = ref false in
    (* all durable flips of reachable coordinators, keyed by
       (coordinator shard, batch id) *)
    let flips = Hashtbl.create 8 in
    for c = 0 to n - 1 do
      if engine_up t c then begin
        let p = (raw t c).p in
        P.read_tx p (fun () ->
            R.iter p R.Flip.r c (fun off ->
                Hashtbl.replace flips (c, R.Flip.id p off) off))
      end
    done;
    (* phase 1: resolve every hooked mirror.  Offsets are collected in
       one read pass per shard and stay valid as others are unhooked
       (a splice never moves surviving records), so a mirror left
       hooked on purpose cannot spin the walk. *)
    for i = 0 to n - 1 do
      if not (engine_up t i) then begin
        (* an evacuated shard is retired for good — its residual mirrors
           are abandoned with it and never block flip reclamation; any
           other down shard may come back via repair, so its unresolved
           mirrors park phase 2 *)
        match t.health_arr.(i) with
        | Quarantined (Evacuated _) -> ()
        | _ -> skipped := true
      end
      else begin
        let s = raw t i in
        let offs = ref [] in
        P.read_tx s.p (fun () ->
            R.iter s.p R.Mirror.r i (fun off -> offs := off :: !offs));
        (* a rotten shard can truncate a chain mid-record; on a sound
           shard the same shape is real corruption, surfaced raw *)
        let corrupt e =
          match t.health_arr.(i) with
          | Degraded _ -> skipped := true
          | _ -> raise e
        in
        List.iter
          (fun head ->
            match
              let id, coord, sealed =
                P.read_tx s.p (fun () -> R.Mirror.header s.p i ~shards:n head)
              in
              if sealed = 0 then begin
                (* partially-streamed chain, never sealed: the slice was
                   never applied, so the whole chain is presumed-abort
                   garbage — collected without decoding a byte *)
                P.update_tx s.p (fun () -> R.Mirror.reclaim s.p i head);
                tick t Rolled_back 1;
                Fault.hit fp_chunk_gc
              end
              else if not (engine_up t coord) then
                (* coordinator down: commit vs abort is undecidable;
                   leave the sealed mirror hooked until after repair *)
                skipped := true
              else if Hashtbl.mem flips (coord, id) then begin
                (* committed: the slice is already applied *)
                P.update_tx s.p (fun () ->
                    ignore (R.Mirror.read s.p i ~shards:n head : _ list);
                    R.Mirror.reclaim s.p i head);
                tick t Rolled_forward 1
              end
              else begin
                rollback_mirror_tx t i head;
                tick t Rolled_back 1
              end
            with
            | () -> Fault.hit fp_recover_resolved
            | exception (Pmem.Region.Crash_point as e) -> raise e
            | exception
                ( Pmem.Region.Media_error _
                | Romulus.Engine.Tx_aborted
                    { cause = Pmem.Region.Media_error _; _ } ) ->
              skipped := true
            | exception
                ( Romulus.Engine.Tx_aborted
                    { cause = Romulus.Engine.Recovery_error _ as e; _ }
                | (Romulus.Engine.Recovery_error _ as e) ) ->
              corrupt e)
          (List.rev !offs)
      end
    done;
    (* phase 2: with nothing skipped no mirror survives anywhere, so
       every flip is reclaimable *)
    if not !skipped then
      for c = 0 to n - 1 do
        if engine_up t c then begin
          let p = (raw t c).p in
          R.walk p R.Flip.r c (R.root p R.flip_slot) (fun head ->
              P.update_tx p (fun () -> R.pop p R.Flip.r head);
              R.root p R.flip_slot)
        end
      done
end
