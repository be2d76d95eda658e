(* Sharded RomulusDB: the LevelDB interface of Romulus_db, hash-
   partitioned across N independent per-shard PTM instances.  One engine
   means one C-RW-WP writer lock and one flat-combining array, so update
   throughput is flat no matter how many domains run; with a shard per
   partition, unrelated updates commit concurrently and each shard
   amortizes its own batch under one set of persistence fences, while
   every shard keeps the paper's twin-copy 4-fence protocol intact.

   Cross-shard write batches are made all-or-nothing by a persistent
   *decentralized presumed-abort* commit protocol:

     PREPARE+APPLY  one ordinary durable transaction per participant
                    shard writes that shard's own *intent mirror*
                    (batch id, coordinator, participant set, its slice
                    of ops + per-key undo images) into the shard's
                    mirror list and, in the same transaction, applies
                    the slice.  Mirror durable <=> slice applied.
     COMMIT         one transaction on the *coordinator* shard (the
                    minimum participant index — different batches pick
                    different coordinators, so no fixed shard serializes
                    the protocol) hooks a flip record carrying the batch
                    id.  The flip is the batch's durability point.
     CLEAR (lazy)   nothing is unhooked eagerly: a shard reclaims its
                    stale mirrors piggybacked on its next PREPARE (or
                    flip) transaction, and the coordinator's flip is
                    reclaimed once every mirror of its batch is gone —
                    a flip may never be removed while a mirror of its
                    batch survives anywhere, or presumed abort would
                    roll a committed batch back.

   Recovery (after every shard's engine recovery has restored per-shard
   consistency) runs a reconciliation pass: collect the intent mirrors
   across shards and resolve each by querying its coordinator's flip
   list — flip present => the batch committed, the mirror's slice is
   already applied (PREPARE and APPLY are one transaction), so the
   mirror is only unhooked; flip absent => presumed abort, the mirror's
   still-valid undo images are replayed and the mirror unhooked, both
   in one per-shard transaction.  Flips are cleared in a second phase
   once no mirror remains.  Every step is idempotent at the KV level,
   so a crash inside reconciliation reconverges on the next recovery.

   A concurrent single-key write racing an in-flight batch on the same
   key *invalidates the batch's undo entry for that key* inside its own
   transaction (a one-byte flip in the mirror), so neither a runtime
   abort nor crash recovery can overwrite the racing committed write
   with the batch's stale pre-image (the CORRECTNESS.md §10 lost-update
   gap).

   A batch that touches a single shard (always the case with one shard)
   skips the protocol and runs as that shard's lone transaction, exactly
   as in Romulus_db. *)

exception Invalid_shards of int

exception Overloaded of { shard : int; in_flight : int; budget : int }

(* [open_from_files ~shards] against a snapshot family saved with a
   different shard count: the requested count disagrees with the files
   actually on disk (elastic stores grow their family when a split adds
   a shard). *)
exception Shard_mismatch of { requested : int; found : int }

(* ---- per-shard health ----

   Media damage on one shard must not take the store down: every shard
   carries a health verdict, persisted in shard 0 next to the slot
   table, and operations on a sick shard's slots fail with a typed
   exception instead of crashing the caller or silently missing. *)

type health_cause = Shard_records.health_cause =
  | Unrepairable_media of { offset : int; state : string }
  | Open_failed of string
  | Evacuated of { target : int }

type health = Shard_records.health =
  | Healthy
  | Degraded of health_cause
  | Quarantined of health_cause

(* An operation routed to a shard that cannot serve it.  Raised by reads
   of a quarantined shard's slots and writes to any non-healthy shard's
   slots — never a raw [Media_error] leak, never a silent miss. *)
exception Shard_unavailable of { shard : int; cause : health_cause }

(* A shard-attributed open/recovery failure: [open_from_files] wraps a
   per-shard snapshot-load failure (previously a raw [Sys_error] or
   [Snapshot_corrupt] with no shard attribution), [recover_shard]
   wraps its engine's failure, and shard 0 — whose failure is fatal,
   because it anchors routing and health — surfaces its open failure
   (or a legacy intent it refuses) this way from [open_db]. *)
exception Shard_open_failed of { shard : int; cause : exn }

(* ---- routing directory ----

   Keys route through a slot table: [route_hash k mod n_slots] picks a
   slot, the slot's assignment picks the shard.  [n_slots] is fixed at
   [slots_per_shard * initial shard count] when the store is first
   created; epoch 0 assigns slot [s] to shard [s mod n], which makes the
   epoch-0 route bit-for-bit the original hash-modulo route (because n
   divides n_slots, [(h mod n_slots) mod n = h mod n]).  Multi-shard
   stores pin the table durably at first open (so a crashed resize can
   never be confused about the pre-resize count); a 1-shard store writes
   no routing metadata at all until its first split. *)
let slots_per_shard = Shard_records.slots_per_shard

(* Each protocol record names its participants in one int bitmask, bit
   [i] for shard [i], so a store can never grow past the bit width of
   an OCaml int. *)
let max_shards = 63

(* ---- typed-backoff retry around [Overloaded] ----

   Deterministic: the sleep schedule is a pure function of
   [retries]/[base_ns]/[seed] (exponential growth, xorshift jitter), so
   tests can assert the exact schedule and crash campaigns stay
   reproducible.  Shared by migration move batches and exposed for
   clients whose cross-shard batches may be refused by admission control
   or by an in-flight migration window. *)
let default_overload_retries = 5
let default_overload_base_ns = 20_000

let overload_backoff_schedule ~retries ~base_ns ~seed =
  if retries < 0 then invalid_arg "overload_backoff_schedule: retries < 0";
  if base_ns <= 0 then invalid_arg "overload_backoff_schedule: base_ns <= 0";
  let state = ref (if seed = 0 then 0x6b8b4567 else seed land max_int) in
  let next () =
    let x = !state in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    state := x land max_int;
    !state
  in
  List.init retries (fun i ->
      let slot = base_ns * (1 lsl min i 20) in
      slot + (next () mod max 1 (slot / 2)))

(* Busy-wait roughly [ns] of backoff; virtual time, not measured — the
   point is a bounded, monotonically growing pause between retries. *)
let backoff_wait_ns ns =
  for _ = 1 to max 1 (ns / 100) do
    Domain.cpu_relax ()
  done

let with_overload_retry ?(retries = default_overload_retries)
    ?(base_ns = default_overload_base_ns) ?(seed = 0) ?(on_wait = fun _ -> ())
    f =
  let rec go = function
    | [] -> f ()
    | wait :: rest -> (
      try f ()
      with Overloaded _ ->
        on_wait wait;
        backoff_wait_ns wait;
        go rest)
  in
  go (overload_backoff_schedule ~retries ~base_ns ~seed)

(* Chunked mirror streaming: a mirror whose payload exceeds [chunk_bytes]
   is written as a linked chain of CRC-protected chunks, one engine
   transaction each, and only becomes meaningful when a final seal
   transaction flips the mirror's [sealed] word and applies the slice —
   unsealed chains are garbage-collected as presumed abort. *)
let min_chunk_bytes = 128

let default_chunk_bytes = 16 * 1024
let default_spill_threshold = 4 * 1024
let default_admission_budget = 4 * 1024 * 1024
let default_clear_flush_threshold = 32

(* attempts a batch makes to get under the per-shard in-flight budget
   before raising [Overloaded] *)
let admission_retries = 6

module type SHARD_PTM = sig
  include Romulus.Ptm_intf.S

  val open_salvage : Pmem.Region.t -> t * (int * string) list
  val recover : t -> unit
  val recover_salvage : t -> (int * string) list
  val scrub : t -> Romulus.Engine.scrub_report
  val scrub_salvage : t -> Romulus.Engine.scrub_report
  val media_spans : t -> (int * int) list
  val allocator_check : t -> (unit, string) result
end

(* Crash-window failpoints.  The campaign arms one of these with a
   simulated power-off to kill inside a protocol window, between the
   per-shard commits, and around recovery's fan-out. *)
let fp_mirror_applied = Fault.site "sharded.d.mirror_applied"
let fp_flip_written = Fault.site "sharded.d.flip_written"
let fp_mirror_cleared = Fault.site "sharded.d.mirror_cleared"
let fp_rollback_undone = Fault.site "sharded.d.rollback_undone"
let fp_recover_shard_done = Fault.site "sharded.recover.shard_done"
let fp_recover_resolved = Fault.site "sharded.recover.mirror_resolved"
let fp_recover_reconciled = Fault.site "sharded.recover.reconciled"

(* chunk-chain windows: after each streamed chunk commit, after each
   spilled undo image, between the last chunk and the seal transaction,
   and after recovery garbage-collects an unsealed chain *)
let fp_chunk_written = Fault.site "sharded.chunk.written"
let fp_chunk_spilled = Fault.site "sharded.chunk.spilled"
let fp_seal_window = Fault.site "sharded.chunk.seal_window"
let fp_chunk_gc = Fault.site "sharded.chunk.gc"

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

(* health windows: after a shard's health transition is observed (its
   durable record may lag by one shard-0 transaction — recomputed
   deterministically at the next open either way), after an evacuation
   intent commits, and after the evacuation's combined route+health
   flip (the evacuation's validity point) *)
let fp_health_degraded = Fault.site "sharded.health.degraded"
let fp_health_quarantined = Fault.site "sharded.health.quarantined"
let fp_health_repaired = Fault.site "sharded.health.repaired"
let fp_health_evacuate_start = Fault.site "sharded.health.evacuate_start"
let fp_health_evacuated = Fault.site "sharded.health.evacuated"

(* ---- counters ----

   The store's own counters, one set per open store (see [Counter_set]
   for their lifetime), ticked once per event on whichever shard. *)

type counter =
  | Intent_prepares
  | Coordinator_flips
  | Deferred_clears
  | Rolled_forward
  | Rolled_back
  | Chunks_written
  | Chunks_spilled
  | Overload_rejections
  | Clear_flushes
  | Migrations_started
  | Migrations_resumed
  | Migrations_completed
  | Keys_migrated
  | Double_reads
  | Health_degraded
  | Health_quarantined
  | Health_repaired
  | Repair_attempts
  | Repair_snapshot_restores
  | Shards_evacuated
  | Keys_evacuated
  | Unavailable_rejections

module Counters = Counter_set.Make (struct
  type nonrec counter = counter

  let table =
    [ ( Intent_prepares, "intent_prepares",
        "intent mirrors made durable, one per participant" );
      ( Coordinator_flips, "coordinator_flips",
        "COMMIT flips: the cross-shard durability point" );
      (Deferred_clears, "deferred_clears", "protocol records reclaimed lazily");
      (Rolled_forward, "rolled_forward", "intents resolved as committed");
      (Rolled_back, "rolled_back", "intents rolled back (presumed abort)");
      (Chunks_written, "chunks_written", "mirror payload chunks made durable");
      ( Chunks_spilled, "chunks_spilled",
        "undo images spilled out of the payload" );
      ( Overload_rejections, "overload_rejections",
        "batches refused by admission control" );
      ( Clear_flushes, "clear_flushes",
        "dedicated lazy-CLEAR flush transactions" );
      ( Migrations_started, "migrations_started",
        "split/merge intents made durable" );
      ( Migrations_resumed, "migrations_resumed",
        "migrations picked up by recovery" );
      ( Migrations_completed, "migrations_completed",
        "migrations whose epoch flip committed" );
      (Keys_migrated, "keys_migrated", "keys inserted into a migration target");
      ( Double_reads, "double_reads",
        "reads that fell back to the migration source" );
      (Health_degraded, "health_degraded", "shard transitions into Degraded");
      ( Health_quarantined, "health_quarantined",
        "shard transitions into Quarantined" );
      (Health_repaired, "health_repaired", "shard transitions back to Healthy");
      ( Repair_attempts, "repair_attempts",
        "scrub/reopen attempts by the repair driver" );
      ( Repair_snapshot_restores, "repair_snapshot_restores",
        "shards restored from a snapshot file" );
      ( Shards_evacuated, "shards_evacuated",
        "dying shards whose keys were evacuated" );
      (Keys_evacuated, "keys_evacuated", "keys copied off a dying shard");
      ( Unavailable_rejections, "unavailable_rejections",
        "operations refused with Shard_unavailable" ) ]
end)

module Make (P : SHARD_PTM) = struct
  module Map_ = Pds.Hash_map.Of_codec (Pds.Codec.Blob) (P)
  module R = Shard_records.Make (P)

  type shard = { p : P.t; map : Map_.t; region : Pmem.Region.t }

  (* A batch handle is a shallow copy of the store with [batch = Some _]:
     operations on it are buffered (newest first) instead of applied, so
     concurrent batches never share mutable state. *)
  type batch = { mutable ops : (string * string option) list }

  (* A still-valid undo entry of an in-flight batch, consulted by racing
     single-key writes: [pu_valid] is the absolute offset of the entry's
     validity byte, which lives inside the payload chunk at [pu_chunk]
     of shard [pu_shard]'s mirror — the chunk whose CRC an invalidation
     must refresh. *)
  type pending_undo = {
    pu_shard : int;
    pu_chunk : int;
    pu_valid : int;
  }

  (* Volatile protocol state, shared by every handle of one store (batch
     handles are shallow copies).  Lost at a crash by definition — the
     recovery reconciliation pass rebuilds the persistent truth and this
     record is reset. *)
  (* Resource-governance knobs, fixed at [open_db]. *)
  type config = {
    initial_buckets : int;
    chunk_bytes : int;
    spill_threshold : int;
    admission_budget : int;
    clear_flush_threshold : int;
  }

  type proto = {
    config : config;
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
       protocol, charged by admission control (volatile by design — a
       crash empties the protocol) *)
    mutable in_flight : int array;
  }

  (* An in-flight migration's volatile window state (the persistent truth
     is the intent record): moving slots already route to the target,
     reads double-read (target, then tombstones, then source), and
     [mig_tomb] — a map in the target region — records keys a racing
     delete made authoritatively absent, so neither the move stream nor
     recovery can resurrect them from a stale source copy. *)
  type mig = {
    mig_source : int;
    mig_target : int;
    mig_epoch : int;
    moving : bool array; (* per slot *)
    mig_tomb : Map_.t;
  }

  (* The routing directory's volatile image, shared by every handle (the
     persistent record — if any — lives in shard 0).  [epoch] counts
     completed resizes; the migration window, when open, has already
     re-pointed [assignment] for the moving slots (the "new epoch"
     route). *)
  type router = {
    mutable epoch : int;
    mutable n_slots : int;
    mutable assignment : int array; (* slot -> shard *)
    mutable migration : mig option;
  }

  type t = {
    (* [None] when the shard's engine could not be opened or recovered;
       the slot keeps its region (and health verdict) so stats, repair
       and snapshot restore still have somewhere to stand. *)
    mutable shard_arr : shard option array;
    (* one region per shard, always populated — even for down shards *)
    mutable region_arr : Pmem.Region.t array;
    mutable health_arr : health array;
    batch : batch option;
    proto : proto;
    router : router;
    counters : Counters.t;
  }

  (* FNV-1a core as the map's bucket hash, plus an avalanche step so the
     shard route is independent of the bucket index even when the shard
     count shares factors with the bucket count. *)
  let route_hash s =
    let h = ref 0x4bf29ce484222325 in
    String.iter (fun c -> h := (!h lxor Char.code c) * 0x100000001b3) s;
    let h = !h in
    let h = h lxor (h lsr 33) in
    let h = h * 0x2545F4914F6CDD1D in
    (h lxor (h lsr 29)) land max_int

  let shards t = Array.length t.region_arr
  let epoch t = t.router.epoch
  let route_slots t = t.router.n_slots
  let slot_of_key t k = route_hash k mod t.router.n_slots
  let shard_of_slot t s = t.router.assignment.(s)
  let shard_of_key t k = t.router.assignment.(slot_of_key t k)
  let regions t = Array.copy t.region_arr

  let health t i =
    if i < 0 || i >= shards t then
      invalid_arg (Printf.sprintf "Sharded_db.health: bad shard %d" i);
    t.health_arr.(i)

  let stats t =
    Pmem.Stats.aggregate
      (Array.to_list (Array.map Pmem.Region.stats t.region_arr))

  let counters t = t.counters
  let tick t c n = Counters.count t.counters c n

  (* ---- availability gates ----

     [raw]: the engine, for protocol/recovery machinery that has already
     established the shard is reachable.  [live]: read availability
     (Healthy and Degraded serve reads; Degraded reads of an actually
     lost line still surface [Media_error] — damage is never silently
     blessed).  [rw]: write availability (Healthy only).  Each rejection
     is metered on the refusing shard and raises the typed
     {!Shard_unavailable} carrying that shard's verdict. *)

  let unavailable t i =
    tick t Unavailable_rejections 1;
    let cause =
      match t.health_arr.(i) with
      | Degraded c | Quarantined c -> c
      | Healthy -> Open_failed "shard engine is not open"
    in
    raise (Shard_unavailable { shard = i; cause })

  let raw t i =
    match t.shard_arr.(i) with Some s -> s | None -> unavailable t i

  let live t i =
    match t.health_arr.(i) with
    | Healthy | Degraded _ -> raw t i
    | Quarantined _ -> unavailable t i

  let rw t i =
    match t.health_arr.(i) with
    | Healthy -> raw t i
    | Degraded _ | Quarantined _ -> unavailable t i

  let shard_for t k = live t (shard_of_key t k)

  (* The shard can participate in recovery-side reconciliation: its
     engine is open and it is not quarantined. *)
  let engine_up t i =
    Option.is_some t.shard_arr.(i)
    && (match t.health_arr.(i) with Quarantined _ -> false | _ -> true)

  let healthy t i =
    Option.is_some t.shard_arr.(i) && t.health_arr.(i) = Healthy

  (* Full scans drop an evacuated shard (its residual map is a stale
     duplicate of its target's keys) but refuse — typed, loudly — on any
     other quarantined shard: a scan must never silently miss keys. *)
  let scan_shard t i =
    match t.health_arr.(i) with
    | Quarantined (Evacuated _) -> None
    | Healthy | Degraded _ -> Some (raw t i)
    | Quarantined _ -> unavailable t i

  (* count a transition into a verdict; returns the verdict's failpoint *)
  let count_health t = function
    | Healthy ->
      tick t Health_repaired 1;
      fp_health_repaired
    | Degraded _ ->
      tick t Health_degraded 1;
      fp_health_degraded
    | Quarantined _ ->
      tick t Health_quarantined 1;
      fp_health_quarantined

  (* ---- plain (non-batch) operations ---- *)

  (* Double-read during a transfer window: a moving key may not have
     reached the target yet, so a target miss consults the tombstones
     (a racing delete is authoritative) and then the source. *)
  let underlying_get t k =
    match t.router.migration with
    | Some m when m.moving.(slot_of_key t k) -> (
      match Map_.get (raw t m.mig_target).map k with
      | Some _ as r -> r
      | None ->
        tick t Double_reads 1;
        if Map_.mem m.mig_tomb k then None
        else Map_.get (raw t m.mig_source).map k)
    | _ -> Map_.get (shard_for t k).map k

  let underlying_mem t k =
    match t.router.migration with
    | Some m when m.moving.(slot_of_key t k) ->
      Map_.mem (raw t m.mig_target).map k
      || begin
        tick t Double_reads 1;
        (not (Map_.mem m.mig_tomb k))
        && Map_.mem (raw t m.mig_source).map k
      end
    | _ -> Map_.mem (shard_for t k).map k

  let apply_op s (k, v) =
    match v with
    | Some v -> ignore (Map_.put s.map k v : bool)
    | None -> ignore (Map_.remove s.map k : bool)

  (* A single-key write that races an in-flight cross-shard batch on the
     same key must not be overwritten by that batch's rollback: inside
     the write's own transaction the batch's undo entry for the key is
     invalidated (one byte in the mirror), so neither the inline abort
     path nor crash recovery will replay the stale pre-image. *)
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

  let write_direct t k v =
    match t.router.migration with
    | Some m when m.moving.(slot_of_key t k) -> forward_write t m k v
    | _ -> (
    let s = rw t (shard_of_key t k) in
    match Hashtbl.find_opt t.proto.pending k with
    | None -> apply_op s (k, v)
    | Some pu ->
      let sp = (raw t pu.pu_shard).p in
      P.update_tx sp (fun () ->
          R.Mirror.invalidate sp ~chunk:pu.pu_chunk ~valid:pu.pu_valid;
          apply_op s (k, v));
      Hashtbl.remove t.proto.pending k)

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
      let visit i =
        match scan_shard t i with None -> () | Some s -> g s
      in
      if reverse then
        for i = n - 1 downto 0 do
          visit i
        done
      else
        for i = 0 to n - 1 do
          visit i
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

  (* index of the lowest set bit of a non-zero mask *)
  let lowest_bit m =
    let rec go b = if m land (1 lsl b) <> 0 then b else go (b + 1) in
    go 0

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
          let* () = check_masks i s in
          go (i + 1)
        | _ -> go (i + 1)
    in
    go 0

  (* ---- shared cross-shard protocol helpers ---- *)

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

  (* pre-batch image of every distinct key of [slice], oldest first *)
  let undo_of t slice =
    let seen = Hashtbl.create 16 in
    List.filter_map
      (fun (k, _) ->
        if Hashtbl.mem seen k then None
        else begin
          Hashtbl.add seen k ();
          Some (k, underlying_get t k)
        end)
      slice

  let wrap_abort e backtrace =
    match e with
    | Romulus.Engine.Tx_aborted _ -> raise e
    | e -> raise (Romulus.Engine.Tx_aborted { cause = e; backtrace })

  (* ---- the presumed-abort protocol ---- *)

  (* Unhook every clearable record of shard [i] inside the caller's
     already-open transaction; the volatile bookkeeping is committed only
     by [finish_drain] after the transaction returns, so an abort (or a
     re-executing STM closure) leaves the plan intact. *)
  let drain_plan t i =
    (t.proto.clearable_mirrors.(i), t.proto.clearable_flips.(i))

  let drain_in_tx t i (mirrors, flips) =
    let p = (raw t i).p in
    List.iter (fun (off, _) -> R.Mirror.reclaim p i off) mirrors;
    List.iter (fun off -> R.unhook p R.Flip.r i off) flips

  let finish_drain t i (mirrors, flips) =
    let pr = t.proto in
    pr.clearable_mirrors.(i) <- [];
    pr.clearable_flips.(i) <- [];
    let n = List.length mirrors + List.length flips in
    tick t Deferred_clears n;
    (* a batch whose last mirror is gone frees its flip for reclamation *)
    List.iter
      (fun (_, id) ->
        match Hashtbl.find_opt pr.live_flips id with
        | None -> ()
        | Some (coord, flip_off, remaining) ->
          decr remaining;
          if !remaining = 0 then begin
            Hashtbl.remove pr.live_flips id;
            pr.clearable_flips.(coord) <-
              flip_off :: pr.clearable_flips.(coord)
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
    let threshold = t.proto.config.clear_flush_threshold in
    let n = shards t in
    for i = 0 to n - 1 do
      if
        List.length t.proto.clearable_mirrors.(i)
        + List.length t.proto.clearable_flips.(i)
        >= threshold
      then flush_shard_clears t i
    done

  (* replay the still-valid undo entries of the sealed mirror at [off]
     and reclaim it (chunk chain and spills included), inside one
     transaction on shard [i]; reads the validity bytes back from the
     chain so racing invalidations are honored *)
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

  (* ---- PREPARE: one mirror per participant, fast or streamed ----

     Fast path (payload fits one chunk, nothing to spill): one
     transaction allocates chunk and sealed mirror, hooks it, reclaims
     stale records and applies the slice — exactly one protocol
     transaction per participant, as before chunking.

     Streamed path: an *unsealed* mirror shell is hooked first; each
     spilled undo image and each payload chunk then commits in its own
     bounded transaction, linked into the shell as it goes; a final seal
     transaction flips [sealed] and applies the slice.  A crash anywhere
     before the seal leaves an unsealed chain that recovery collects as
     presumed abort; a runtime abort collects it inline.  Sealed <=>
     slice applied — the PR 6 invariant at chain granularity. *)
  let prepare_shard t ~chunk_bytes i ~id ~coord ~mask slice =
    let s = raw t i in
    let cfg = t.proto.config in
    let nshards = shards t in
    let undo = undo_of t slice in
    let inline_len = R.mirror_payload_len ~ops:slice ~undo in
    let needs_spill =
      List.exists
        (fun (_, v) ->
          match v with
          | Some v -> String.length v > cfg.spill_threshold
          | None -> false)
        undo
    in
    if (not needs_spill) && inline_len <= chunk_bytes then begin
      let payload, rel_offs =
        R.encode_mirror ~nshards ~ops:slice
          ~undo:(List.map (fun (k, v) -> (k, R.image_of_opt v)) undo)
      in
      let plen = String.length payload in
      let moff, coff =
        tx_with_drain t i (fun () ->
            let c = R.Mirror.write_chunk s.p payload in
            let o =
              R.Mirror.push s.p ~id ~coord ~mask ~sealed:1 ~plen ~chunks:c
            in
            List.iter (apply_op s) slice;
            (o, c))
      in
      tick t Chunks_written 1;
      ( moff,
        List.map (fun (k, rel) -> (k, coff, R.Mirror.byte coff rel)) rel_offs
      )
    end
    else begin
      (* unsealed shell first: from here the chain is crash-visible and
         recovery (or the inline abort path) can always collect it *)
      let moff =
        tx_with_drain t i (fun () ->
            R.Mirror.push s.p ~id ~coord ~mask ~sealed:0 ~plen:0 ~chunks:0)
      in
      try
        (* oversized undo images leave the payload: one record each,
           linked into the shell's spill list *)
        let images =
          List.map
            (fun (k, v) ->
              match v with
              | Some v when String.length v > cfg.spill_threshold ->
                let len = String.length v in
                let soff =
                  P.update_tx s.p (fun () -> R.Mirror.add_spill s.p moff v)
                in
                tick t Chunks_spilled 1;
                Fault.hit fp_chunk_spilled;
                (k, R.U_spilled { off = soff; len })
              | v -> (k, R.image_of_opt v))
            undo
        in
        let payload, rel_offs =
          R.encode_mirror ~nshards ~ops:slice ~undo:images
        in
        (* stream the chain; every piece but the last holds exactly
           [chunk_bytes], so payload byte [rel] lies in chunk
           [rel / chunk_bytes] *)
        let chunks = ref [] in
        List.iter
          (fun piece ->
            let prev = match !chunks with c :: _ -> c | [] -> 0 in
            let c =
              P.update_tx s.p (fun () ->
                  let c = R.Mirror.write_chunk s.p piece in
                  R.Mirror.link_chunk s.p moff ~prev c;
                  c)
            in
            chunks := c :: !chunks;
            tick t Chunks_written 1;
            Fault.hit fp_chunk_written)
          (Shard_records.Chunk.split ~chunk_bytes payload);
        let chunks = Array.of_list (List.rev !chunks) in
        Fault.hit fp_seal_window;
        (* the seal: sealed <=> slice applied, atomically *)
        P.update_tx s.p (fun () ->
            R.Mirror.seal s.p moff ~plen:(String.length payload);
            List.iter (apply_op s) slice);
        ( moff,
          List.map
            (fun (k, rel) ->
              let c = chunks.(rel / chunk_bytes) in
              (k, c, R.Mirror.byte c (rel mod chunk_bytes)))
            rel_offs )
      with
      | Pmem.Region.Crash_point ->
        (* dead machine: recovery collects the unsealed chain *)
        raise Pmem.Region.Crash_point
      | e ->
        (* runtime abort mid-stream: collect our own unsealed chain
           before re-raising to the batch-level abort handler *)
        P.update_tx s.p (fun () -> R.Mirror.reclaim s.p i moff);
        raise e
    end

  let cross_shard_batch t ~chunk_bytes groups =
    let pr = t.proto in
    let id = pr.next_batch_id in
    pr.next_batch_id <- id + 1;
    let coord = fst (List.hd groups) in
    let mask = List.fold_left (fun m (i, _) -> m lor (1 lsl i)) 0 groups in
    let applied = ref [] in
    (* keys whose pending-undo entries this batch registered *)
    let registered = ref [] in
    let unregister () =
      List.iter (fun k -> Hashtbl.remove pr.pending k) !registered;
      registered := []
    in
    match
      (* PREPARE+APPLY: each participant's mirror becomes durable-and-
         sealed in the same transaction that applies its slice (the fast
         path), or via a streamed chain whose seal transaction applies
         the slice — either way a sealed mirror always means an applied
         slice.  Stale records of earlier committed batches are
         reclaimed inside the protocol transactions (the lazy CLEAR). *)
      List.iter
        (fun (i, slice) ->
          let moff, valids =
            prepare_shard t ~chunk_bytes i ~id ~coord ~mask slice
          in
          applied := (i, moff) :: !applied;
          tick t Intent_prepares 1;
          (* expose the undo entries to racing single-key writes *)
          List.iter
            (fun (k, coff, aoff) ->
              Hashtbl.replace pr.pending k
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
      Hashtbl.replace pr.live_flips id
        (coord, flip_off, ref (List.length participants));
      List.iter
        (fun (i, off) ->
          pr.clearable_mirrors.(i) <- (off, id) :: pr.clearable_mirrors.(i))
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
      wrap_abort e backtrace

  (* ---- admission control ----

     Every cross-shard batch is charged its per-shard mirror footprint
     (the exact inline-encoded payload length) against a volatile
     per-shard in-flight budget *before any persistent effect*.  A batch
     that cannot fit spins through a bounded backoff and then fails with
     the typed [Overloaded] — raised directly, not wrapped in
     [Tx_aborted], because nothing was written.  A single batch larger
     than the whole budget fails immediately: no backoff can help it. *)

  let backoff_spin round =
    for _ = 1 to (round + 1) * 64 do
      Domain.cpu_relax ()
    done

  let admit t charges =
    let budget = t.proto.config.admission_budget in
    let infl = t.proto.in_flight in
    let rec attempt round =
      match
        List.find_opt (fun (i, c) -> infl.(i) + c > budget) charges
      with
      | None -> List.iter (fun (i, c) -> infl.(i) <- infl.(i) + c) charges
      | Some (i, c) ->
        if round < admission_retries && c <= budget then begin
          backoff_spin round;
          attempt (round + 1)
        end
        else begin
          tick t Overload_rejections 1;
          raise (Overloaded { shard = i; in_flight = infl.(i); budget })
        end
    in
    attempt 0

  let release t charges =
    let infl = t.proto.in_flight in
    List.iter (fun (i, c) -> infl.(i) <- infl.(i) - c) charges

  (* ---- elastic sharding: routing directory + live migration ----

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

  let tomb_map t target =
    Map_.open_or_create ~initial_buckets:t.proto.config.initial_buckets
      (raw t target).p ~root:R.tomb_slot

  (* Replace the persisted routing table.  Called at first open
     (multi-shard stores) and by each resize's epoch flip — a 1-shard
     store keeps the slot at 0 until it splits, staying bit-for-bit
     Romulus_db.  An evacuation writes route and health in one shard-0
     transaction of its own. *)
  let persist_route t ~epoch =
    let p0 = (raw t 0).p in
    P.update_tx p0 (fun () ->
        R.Route.write p0 ~epoch ~shards:(shards t) t.router.assignment)

  (* ---- durable health record (shard 0) ----

     The record is a cache of deterministically recomputable verdicts
     (media rot is persistent), with one exception: [Quarantined
     (Evacuated _)] is authoritative — an evacuated shard's residual
     bytes may even scrub clean, but its keys live on the target now, so
     the verdict must survive reopen. *)
  let persist_health t =
    let p0 = (raw t 0).p in
    P.update_tx p0 (fun () -> R.Health.write p0 t.health_arr)

  (* Record a health transition: volatile verdict, counter, failpoint,
     and (unless the caller batches several transitions under one
     [persist_health]) the durable record.  A crash between the
     failpoint and the durable write converges: verdicts are recomputed
     at the next open. *)
  let set_health ?(persist = true) t i h =
    if t.health_arr.(i) <> h then begin
      t.health_arr.(i) <- h;
      Fault.hit (count_health t h);
      if persist then persist_health t
    end

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
      if base > 1 && R.root p0 R.mig_slot = 0 then
        persist_route t ~epoch:0);
    r.migration <- None

  (* A durable migration intent is still hooked (never true after
     recovery or a completed resize: reclamation unhooks it). *)
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
    with_overload_retry ~seed:(m.mig_epoch + plen) (fun () -> admit t charge);
    Fun.protect
      ~finally:(fun () -> release t charge)
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
    let chunk_bytes = t.proto.config.chunk_bytes in
    let rec pass () =
      let pending = ref [] in
      Map_.iter src.map (fun k v ->
          if m.moving.(slot_of_key t k) then pending := (k, v) :: !pending);
      match !pending with
      | [] -> ()
      | kvs ->
        R.Cursor.batches ~limit:chunk_bytes
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

  (* The migration's validity point: persist the routing table under the
     new epoch in one shard-0 transaction.  The volatile assignment was
     re-pointed when the window opened, so this only makes it durable. *)
  let flip_epoch t m =
    persist_route t ~epoch:m.mig_epoch;
    t.router.epoch <- m.mig_epoch;
    t.router.migration <- None;
    tick t Migrations_completed 1;
    Fault.hit fp_mig_flip

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
          List.iter
            (fun k -> ignore (Map_.remove tomb k : bool))
            !tkeys);
    R.clear (raw t 0).p R.Intent.r;
    Fault.hit fp_mig_reclaim

  (* Open a fresh region as the next shard index (formatting it under
     its own engine) and grow the per-shard protocol arrays. *)
  let attach_shard t region =
    let cfg = t.proto.config in
    let p = P.open_region region in
    let map =
      Map_.open_or_create ~initial_buckets:cfg.initial_buckets p
        ~root:R.db_root
    in
    t.shard_arr <- Array.append t.shard_arr [| Some { p; map; region } |];
    t.region_arr <- Array.append t.region_arr [| region |];
    t.health_arr <- Array.append t.health_arr [| Healthy |];
    let pr = t.proto in
    pr.clearable_mirrors <- Array.append pr.clearable_mirrors [| [] |];
    pr.clearable_flips <- Array.append pr.clearable_flips [| [] |];
    pr.in_flight <- Array.append pr.in_flight [| 0 |];
    shards t - 1

  (* Run a migration from an already-durable intent: open the window
     (moving slots route to the target from here), stream, flip,
     reclaim. *)
  let run_migration t ~source ~target ~mepoch ~moving =
    let r = t.router in
    let m =
      { mig_source = source; mig_target = target; mig_epoch = mepoch;
        moving; mig_tomb = tomb_map t target }
    in
    r.migration <- Some m;
    Array.iteri (fun s mv -> if mv then r.assignment.(s) <- target) moving;
    run_move_loop t m;
    flip_epoch t m;
    reclaim_migration t ~source ~target ~moving

  (* Make a migration intent durable (kind 0 = split, 1 = merge, 2 =
     evacuation) and return the epoch it will flip to. *)
  let write_mig_intent t ~kind ~source ~target ~moving =
    let r = t.router in
    let mepoch = r.epoch + 1 in
    let s0 = raw t 0 in
    P.update_tx s0.p (fun () ->
        R.Intent.write s0.p ~kind ~source ~target ~epoch:mepoch moving);
    tick t Migrations_started 1;
    Fault.hit fp_mig_intent;
    mepoch

  let start_migration t ~kind ~source ~target ~moving =
    let mepoch = write_mig_intent t ~kind ~source ~target ~moving in
    run_migration t ~source ~target ~mepoch ~moving

  let check_resizable t ~source =
    if t.batch <> None then
      invalid_arg "Sharded_db: cannot resize through a batch handle";
    if t.router.migration <> None then
      invalid_arg "Sharded_db: a migration is already in progress";
    let n = shards t in
    if source < 0 || source >= n then
      invalid_arg (Printf.sprintf "Sharded_db: bad source shard %d" source)

  let owned_slots t shard =
    let r = t.router in
    let owned = ref [] in
    for s = r.n_slots - 1 downto 0 do
      if r.assignment.(s) = shard then owned := s :: !owned
    done;
    !owned

  (* Split half of [source]'s slots (every other owned slot) onto a new
     shard opened over [region]; returns the new shard's index.  Online:
     reads and single-key writes proceed during the stream. *)
  let split_shard t ~source region =
    if shards t >= max_shards then raise (Invalid_shards (shards t + 1));
    check_resizable t ~source;
    (* the move stream reads and deletes from the source: Healthy only *)
    ignore (rw t source : shard);
    let owned = owned_slots t source in
    if List.length owned < 2 then
      invalid_arg
        (Printf.sprintf
           "Sharded_db.split_shard: shard %d owns %d slot(s), cannot split"
           source (List.length owned));
    let target = attach_shard t region in
    let moving = Array.make t.router.n_slots false in
    List.iteri (fun i s -> if i land 1 = 1 then moving.(s) <- true) owned;
    start_migration t ~kind:0 ~source ~target ~moving;
    target

  (* Move every slot of [source] onto [target]; the source region stays
     attached (it may anchor the routing directory or host protocol
     records) but owns no slots and holds no keys afterwards. *)
  let merge_shards t ~source ~target =
    check_resizable t ~source;
    let n = shards t in
    if target < 0 || target >= n then
      invalid_arg (Printf.sprintf "Sharded_db: bad target shard %d" target);
    if target = source then
      invalid_arg "Sharded_db.merge_shards: source = target";
    (* both endpoints take writes during the stream: Healthy only *)
    ignore (rw t source : shard);
    ignore (rw t target : shard);
    let owned = owned_slots t source in
    if owned = [] then
      invalid_arg
        (Printf.sprintf "Sharded_db.merge_shards: shard %d owns no slots"
           source);
    let moving = Array.make t.router.n_slots false in
    List.iter (fun s -> moving.(s) <- true) owned;
    start_migration t ~kind:1 ~source ~target ~moving

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
    R.Cursor.batches ~limit:t.proto.config.chunk_bytes
      (insert_absent t tgt ~tomb:None Keys_evacuated)
      kvs;
    (* volatile route + verdict first (precedent: run_migration opening
       the window before its durable flip), then the atomic flip *)
    let r = t.router in
    Array.iteri (fun s mv -> if mv then r.assignment.(s) <- target) moving;
    let verdict = Quarantined (Evacuated { target }) in
    t.health_arr.(source) <- verdict;
    ignore (count_health t verdict : Fault.site);
    let s0 = raw t 0 in
    P.update_tx s0.p (fun () ->
        R.Route.write s0.p ~epoch:mepoch ~shards:(shards t) r.assignment;
        R.Health.write s0.p t.health_arr);
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
    let owned = owned_slots t source in
    let moving = Array.make t.router.n_slots false in
    List.iter (fun s -> moving.(s) <- true) owned;
    let mepoch = write_mig_intent t ~kind:2 ~source ~target ~moving in
    run_evacuation t ~source ~target ~mepoch ~moving

  (* Recovery-side reconciliation of an in-flight migration.  Split and
     merge intents are rolled *forward* — but only when both endpoints
     are fully healthy: the move stream reads and deletes from the
     source and writes the target, so against rotten media it is
     *parked* instead (intent left hooked, window never opened, slots
     routing on the old epoch) until a {!repair} pass heals the
     endpoints and re-drives this.  An evacuation intent (kind 2)
     re-runs the read-only salvage stream when the source engine is up
     and the target healthy; flipped, it owes only the intent unhook —
     the dying source is never written. *)
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
        let i = m.mig_target in
        tick t Overload_rejections 1;
        raise
          (Overloaded
             { shard = i; in_flight = t.proto.in_flight.(i);
               budget = t.proto.config.admission_budget })
      | _ -> ());
      match group_by_shard t ops with
      | [] -> ()
      | [ (i, sops) ] ->
        (* one shard: a single ordinary transaction, no intent — exact
           Romulus_db semantics (and the only path with one shard) *)
        let s = rw t i in
        P.update_tx s.p (fun () -> List.iter (apply_op s) sops)
      | groups -> (
        (* every participant must accept writes before any intent or
           mirror is made durable: a batch never partially lands on the
           healthy subset of its shards *)
        List.iter (fun (i, _) -> ignore (rw t i : shard)) groups;
        let charges =
          List.map
            (fun (i, slice) ->
              (i, R.mirror_payload_len ~ops:slice ~undo:(undo_of t slice)))
            groups
        in
        admit t charges;
        Fun.protect
          ~finally:(fun () -> release t charges)
          (fun () ->
            (* A redo-log overflow inside PREPARE aborts cleanly (the
               batch-level handler already rolled every applied mirror
               back), so re-enter the chunked path with smaller chunks —
               bounding each protocol transaction — instead of surfacing
               the overflow.  When even [min_chunk_bytes] overflows (the
               slice itself is too wide for the redo log) the typed
               [Tx_aborted] carries the cause. *)
            let rec attempt chunk_bytes =
              try cross_shard_batch t ~chunk_bytes groups
              with
              | Romulus.Engine.Tx_aborted
                  { cause = Romulus.Redo_log.Overflow _; _ }
                when chunk_bytes > min_chunk_bytes ->
                attempt (max min_chunk_bytes (chunk_bytes / 4))
            in
            attempt t.proto.config.chunk_bytes))
    end

  let write_batch t f =
    match t.batch with
    | Some _ -> f t (* nested batch flattens, like a nested update_tx *)
    | None -> (
      let b = { ops = [] } in
      match f { t with batch = Some b } with
      | () -> commit_batch t b
      | exception ((Romulus.Engine.Tx_aborted _ | Pmem.Region.Crash_point) as e)
        ->
        raise e
      | exception e ->
        (* the buffered operations are simply discarded; surface the same
           typed abort a Romulus_db batch (one update_tx) would *)
        let backtrace = Printexc.get_backtrace () in
        raise (Romulus.Engine.Tx_aborted { cause = e; backtrace }))

  (* ---- recovery, reconciliation, scrub ---- *)

  (* Reconciliation: resolve every hooked mirror against
     its coordinator's flip list, then clear the flips.  Phase order
     matters — a flip may only be removed once no mirror of its batch
     remains anywhere, or a crash between the two phases would turn a
     committed batch into a presumed abort.

     Flip present  => the batch committed; the mirror's slice was
                      applied in the same transaction that wrote the
                      mirror, so resolution just unhooks it.
     Flip absent   => presumed abort; replay the mirror's still-valid
                      undo images and unhook, one transaction per
                      mirror.  Idempotent: every step is an absolute
                      put/delete plus a list splice.

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
              else begin
                (* resolve only a mirror whose payload verifies *)
                P.read_tx s.p (fun () ->
                    ignore (R.Mirror.read s.p i ~shards:n head : _ list));
                if Hashtbl.mem flips (coord, id) then begin
                  (* committed: the slice is already applied *)
                  P.update_tx s.p (fun () -> R.Mirror.reclaim s.p i head);
                  tick t Rolled_forward 1
                end
                else begin
                  rollback_mirror_tx t i head;
                  tick t Rolled_back 1
                end
              end
            with
            | () -> Fault.hit fp_recover_resolved
            | exception (Pmem.Region.Crash_point as e) -> raise e
            | exception
                ( Pmem.Region.Media_error _
                | Romulus.Engine.Tx_aborted
                    { cause = Pmem.Region.Media_error _; _ } ) ->
              skipped := true
            | exception (Romulus.Engine.Recovery_error _ as e) -> (
              (* a rotten shard can truncate a chain mid-record; on a
                 sound shard the same shape is real corruption *)
              match t.health_arr.(i) with
              | Degraded _ -> skipped := true
              | _ -> raise e))
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

  (* A set shard-0 [intent_slot] is a PREPARED or COMMITTED record of
     the removed shard-0 intent protocol.  Nothing here can finish it,
     and ignoring it would leave its batch half-applied, so the image is
     refused. *)
  let refuse_legacy_intent t =
    match R.root (raw t 0).p R.intent_slot with
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
                    off R.intent_slot) })

  (* Reconciliation rebuilds the persistent truth, so the volatile
     protocol bookkeeping (which may hold offsets of records the pass
     just freed) is reset first. *)
  let reconcile t =
    refuse_legacy_intent t;
    let pr = t.proto in
    Hashtbl.reset pr.pending;
    Hashtbl.reset pr.live_flips;
    Array.fill pr.clearable_mirrors 0 (Array.length pr.clearable_mirrors) [];
    Array.fill pr.clearable_flips 0 (Array.length pr.clearable_flips) [];
    Array.fill pr.in_flight 0 (Array.length pr.in_flight) 0;
    (* the routing table first (batch reconciliation may route), then the
       commit protocol (per-key truth must be settled before keys are
       streamed between shards), then any in-flight migration — which is
       always completed, so handles never see an open window after
       recovery *)
    load_router t;
    reconcile_mirrors t;
    reconcile_migration t

  let recover_shard t i =
    if i < 0 || i >= shards t then
      invalid_arg (Printf.sprintf "Sharded_db.recover_shard: bad shard %d" i);
    match t.shard_arr.(i) with
    | None ->
      raise
        (Shard_open_failed
           { shard = i;
             cause = Romulus.Engine.Recovery_error "engine is not open" })
    | Some s -> (
      try P.recover s.p with
      | Pmem.Region.Crash_point as e -> raise e
      | e -> raise (Shard_open_failed { shard = i; cause = e }))

  (* The verdict on a shard from its salvage open or recovery: the
     data-loss lines its scrub tolerated (Degraded when any), or what it
     raised; [other] takes an exception no verdict covers. *)
  let verdict ~doing ~other = function
    | Ok [] -> Healthy
    | Ok ((offset, state) :: _) ->
      Degraded (Unrepairable_media { offset; state })
    | Error (Romulus.Engine.Unrepairable { offset; state }) ->
      Quarantined (Unrepairable_media { offset; state })
    | Error (Romulus.Engine.Recovery_error msg) -> Quarantined (Open_failed msg)
    | Error (Pmem.Region.Media_error { offset; _ }) ->
      Quarantined
        (Open_failed
           (Printf.sprintf "media error at offset %d %s" offset doing))
    | Error e -> other e

  (* Per-shard engine recovery (salvage mode), fanned out across
     domains, classified into health verdicts instead of raised: shard
     0 failing is fatal ({!Shard_open_failed} — it anchors the store),
     any other failing shard is quarantined with its engine detached,
     and data-loss survivors come back Degraded.  A previously recorded
     [Evacuated] verdict is authoritative and never reclassified. *)
  let recover ?(parallel = true) t =
    let n = shards t in
    let verdicts = Array.make n None in
    let run s = try Ok (P.recover_salvage s.p) with e -> Error e in
    (* every shard's recovery, to be joined in shard order: all spawned
       up front when parallel, each run at its join otherwise *)
    let start s =
      if parallel && n > 1 then
        let d = Domain.spawn (fun () -> run s) in
        fun () -> Domain.join d
      else fun () -> run s
    in
    Array.iteri
      (fun i d ->
        match d with
        | None -> ()
        | Some join ->
          verdicts.(i) <- Some (join ());
          Fault.hit fp_recover_shard_done)
      (Array.map (Option.map start) t.shard_arr);
    (* a simulated machine crash is the whole store dying, not a shard
       fault; and without shard 0 there is nothing to degrade to *)
    Array.iter
      (function
        | Some (Error Pmem.Region.Crash_point) -> raise Pmem.Region.Crash_point
        | _ -> ())
      verdicts;
    (match verdicts.(0) with
    | Some (Error e) -> raise (Shard_open_failed { shard = 0; cause = e })
    | _ -> ());
    let changed = ref false in
    Array.iteri
      (fun i v ->
        match (v, t.health_arr.(i)) with
        | None, _ | _, Quarantined (Evacuated _) -> ()
        | Some v, prev ->
          let h =
            verdict ~doing:"during recovery" v ~other:(fun e ->
                raise (Shard_open_failed { shard = i; cause = e }))
          in
          (match h with
          | Quarantined _ -> t.shard_arr.(i) <- None
          | Healthy | Degraded _ -> ());
          if prev <> h then begin
            set_health ~persist:false t i h;
            changed := true
          end)
      verdicts;
    if !changed then persist_health t;
    reconcile t;
    Fault.hit fp_recover_reconciled

  (* Hooked protocol records across the whole store: every mirror and
     flip.  Committed batches leave theirs here until a later protocol
     transaction, a flush or recovery reclaims them. *)
  let pending_intents t =
    let n = ref 0 in
    Array.iteri
      (fun i ->
        Option.iter (fun s ->
            n := !n + R.count s.p R.Mirror.r i + R.count s.p R.Flip.r i))
      t.shard_arr;
    !n

  let media_spans t =
    Array.map
      (function None -> [] | Some s -> P.media_spans s.p)
      t.shard_arr

  (* Per-shard salvage scrub reports, one entry per open engine: each
     repaired or tolerated line is attributed to exactly the shard whose
     region holds it. *)
  let scrub_shards t =
    let acc = ref [] in
    Array.iteri
      (fun i so ->
        match so with
        | None -> ()
        | Some s -> acc := (i, P.scrub_salvage s.p) :: !acc)
      t.shard_arr;
    List.rev !acc

  (* Store-wide salvage scrub over every shard whose engine is open,
     with the tolerated data-loss lines of all shards concatenated
     (offsets are shard-relative — {!scrub_shards} keeps the
     attribution). *)
  let scrub t =
    List.fold_left
      (fun (acc : Romulus.Engine.scrub_report) (_, r) ->
        { Romulus.Engine.scrubbed = acc.scrubbed + r.Romulus.Engine.scrubbed;
          repaired = acc.repaired + r.repaired;
          unrepairable = acc.unrepairable @ r.unrepairable })
      { Romulus.Engine.scrubbed = 0; repaired = 0; unrepairable = [] }
      (scrub_shards t)

  (* ---- the repair supervisor ---- *)

  type repair_outcome =
    | Scrub_repaired
    | Snapshot_restored
    | Evacuated_keys of { target : int; moved : int }
    | Unrepaired of health_cause

  (* Mount an engine over [region] and open its key map.  The open's
     own salvage recovery scrub is the shard's one media pass; the
     data-loss lines it tolerated come back with the shard. *)
  let mount ~initial_buckets region =
    let p, lost = P.open_salvage region in
    let map = Map_.open_or_create ~initial_buckets p ~root:R.db_root in
    ({ p; map; region }, lost)

  (* R1: bounded scrub retries under the shared jittered-exponential
     backoff schedule.  Each attempt is one media pass: a detached shard
     is mounted and its open's own scrub decides; an open engine takes
     one salvage scrub.  Succeeds when the pass finds nothing
     unrepairable (rot healed from a twin, or cleared at the source). *)
  let repair_scrub t i ~retries ~base_ns ~seed =
    let attempt () =
      tick t Repair_attempts 1;
      match
        match t.shard_arr.(i) with
        | Some s -> (P.scrub_salvage s.p).unrepairable
        | None ->
          let s, lost =
            mount ~initial_buckets:t.proto.config.initial_buckets
              t.region_arr.(i)
          in
          t.shard_arr.(i) <- Some s;
          lost
      with
      | lost -> lost = []
      | exception Pmem.Region.Crash_point -> raise Pmem.Region.Crash_point
      | exception _ -> false
    in
    let rec go = function
      | [] -> attempt ()
      | wait :: rest ->
        attempt ()
        ||
        (backoff_wait_ns wait;
         go rest)
    in
    go (overload_backoff_schedule ~retries ~base_ns ~seed)

  (* R2: replace the shard's region wholesale from its latest snapshot
     file, validated by a clean salvage scrub (the open's own) before it
     is adopted.
     Writes committed to the shard after the snapshot are lost — which
     is why this is strictly a fallback — and any batch the store owed
     the shard is re-settled by the reconciliation replay that follows
     repair. *)
  let repair_restore t i ~snapshot_base =
    match snapshot_base with
    | None -> false
    | Some base -> (
      let path = Pmem.Region.shard_snapshot_path base ~shard:i in
      Sys.file_exists path
      &&
      try
        let region = Pmem.Region.load_from_file path in
        match
          mount ~initial_buckets:t.proto.config.initial_buckets region
        with
        | s, [] ->
          t.region_arr.(i) <- region;
          t.shard_arr.(i) <- Some s;
          tick t Repair_snapshot_restores 1;
          true
        | _ -> false
      with
      | Pmem.Region.Crash_point as e -> raise e
      | _ -> false)

  (* R3 target selection: an explicit healthy target, or the first
     healthy shard that is not the patient. *)
  let find_evac_target t i ~target =
    match target with
    | Some tgt ->
      if tgt < 0 || tgt >= shards t then
        invalid_arg
          (Printf.sprintf "Sharded_db.repair: bad target shard %d" tgt);
      if tgt <> i && healthy t tgt then Some tgt else None
    | None ->
      let rec scan j =
        if j >= shards t then None
        else if j <> i && healthy t j then Some j
        else scan (j + 1)
      in
      scan 0

  (* The self-healing driver, escalating per sick shard:
       R1 scrub retries (backoff), R2 snapshot restore, R3 evacuation.
     Evacuation needs a readable source engine, a healthy target, shard
     0 to not be the patient, and no migration intent in flight; a
     shard nothing applies to keeps its verdict as [Unrepaired].  All
     verdict changes are persisted in one health record, then the
     reconciliation pass re-runs so work parked on the sick shards
     (mirrors, migrations) settles on the healed store. *)
  let repair ?(retries = default_overload_retries)
      ?(base_ns = default_overload_base_ns) ?(seed = 0) ?snapshot_base
      ?target t =
    if t.batch <> None then
      invalid_arg "Sharded_db: cannot repair through a batch handle";
    let outcomes = ref [] in
    let changed = ref false in
    let healed i outcome =
      set_health ~persist:false t i Healthy;
      changed := true;
      outcome
    in
    for i = 0 to shards t - 1 do
      match t.health_arr.(i) with
      | Healthy | Quarantined (Evacuated _) -> ()
      | Degraded cause | Quarantined cause ->
        let outcome =
          if repair_scrub t i ~retries ~base_ns ~seed:(seed + i) then
            healed i Scrub_repaired
          else if i <> 0 && repair_restore t i ~snapshot_base then
            healed i Snapshot_restored
          else
            match
              if
                i = 0
                || Option.is_none t.shard_arr.(i)
                || migration_pending t
              then None
              else find_evac_target t i ~target
            with
            | Some tgt ->
              let moved = start_evacuation t ~source:i ~target:tgt in
              changed := true;
              Evacuated_keys { target = tgt; moved }
            | None -> Unrepaired cause
        in
        outcomes := (i, outcome) :: !outcomes
    done;
    if !changed then begin
      persist_health t;
      reconcile t
    end;
    List.rev !outcomes

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
    (* Per-shard open + classification.  Opening runs engine recovery in
       salvage mode, so content damage surfaces here: a shard whose
       engine mounts is Healthy or Degraded by the data-loss lines that
       recovery's own scrub tolerated (read once, not re-scrubbed); a
       shard whose engine refuses to mount is quarantined with a typed
       cause — except shard 0, which anchors the routing table and the
       health record: without it there is no store to
       degrade, so its failure is the typed fatal {!Shard_open_failed}. *)
    let shard_arr = Array.make n None in
    let health_arr = Array.make n Healthy in
    let verdict =
      verdict ~doing:"while opening" ~other:(fun e ->
          Quarantined (Open_failed (Printexc.to_string e)))
    in
    for i = 0 to n - 1 do
      match mount ~initial_buckets regions.(i) with
      | s, lost ->
        shard_arr.(i) <- Some s;
        health_arr.(i) <- verdict (Ok lost)
      | exception (Pmem.Region.Crash_point as e) -> raise e
      | exception e when i = 0 ->
        raise (Shard_open_failed { shard = 0; cause = e })
      | exception e -> health_arr.(i) <- verdict (Error e)
    done;
    let config =
      { initial_buckets; chunk_bytes; spill_threshold; admission_budget;
        clear_flush_threshold }
    in
    let proto =
      { config; next_batch_id = 1; pending = Hashtbl.create 16;
        clearable_mirrors = Array.make n []; clearable_flips = Array.make n [];
        live_flips = Hashtbl.create 8; in_flight = Array.make n 0 }
    in
    let router =
      { epoch = 0; n_slots = slots_per_shard * n;
        assignment = Array.init (slots_per_shard * n) (fun s -> s mod n);
        migration = None }
    in
    let t =
      { shard_arr; region_arr = Array.copy regions; health_arr;
        batch = None; proto; router; counters = Counters.create () }
    in
    (* Merge the durable record: every verdict above was freshly
       recomputed from the media (rot is persistent), so only the
       non-recomputable [Evacuated] verdict is taken from disk. *)
    let saved =
      Option.value (R.Health.read (raw t 0).p) ~default:(Array.make n Healthy)
    in
    Array.iteri
      (fun i h ->
        match h with
        | Quarantined (Evacuated _) when i < n -> t.health_arr.(i) <- h
        | _ -> ())
      saved;
    Array.iter
      (fun h -> if h <> Healthy then Fault.hit (count_health t h))
      t.health_arr;
    (* refresh the durable record when the medium disagrees with it
       (fresh stores with all shards healthy stay metadata-free) *)
    if saved <> t.health_arr then persist_health t;
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
