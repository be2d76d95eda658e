(* The sharded store's shared vocabulary and state: its exceptions,
   counters and backoff, the store record every handle shares, the
   availability gates and the routing lookups.  [Sharded_db] is the
   façade; the protocols are stated in [sharded_db.mli] and CORRECTNESS
   §10.  Each protocol owns its own part of the record:
   [Shard_commit] the [commit] field, [Shard_health] the verdicts of
   [health_arr], [Shard_migration] the routing image in [router]. *)

exception Invalid_shards of int

exception Shard_mismatch of { requested : int; found : int }

type health_cause = Shard_records.health_cause =
  | Unrepairable_media of { offset : int; state : string }
  | Open_failed of string
  | Evacuated of { target : int }

type health = Shard_records.health =
  | Healthy
  | Degraded of health_cause
  | Quarantined of health_cause

exception Shard_unavailable of { shard : int; cause : health_cause }

exception Shard_open_failed of { shard : int; cause : exn }

let slots_per_shard = Shard_records.slots_per_shard

(* Each protocol record names its participants in one int bitmask, bit
   [i] for shard [i], so a store can never grow past the bit width of
   an OCaml int. *)
let max_shards = 63

(* ---- deterministic backoff ----

   The sleep schedule is a pure function of [retries]/[base_ns]/[seed]
   (exponential growth, xorshift jitter), so tests can assert the exact
   schedule and crash campaigns stay reproducible. *)
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

(* Walk the schedule: [attempt ~last] once, then once after each wait,
   until it returns [Some]; the final attempt runs with [~last:true]. *)
let backoff_walk ~retries ~base_ns ~seed ?(on_wait = ignore) attempt =
  let rec go = function
    | [] -> attempt ~last:true
    | wait :: rest -> (
      match attempt ~last:false with
      | Some _ as r -> r
      | None ->
        on_wait wait;
        backoff_wait_ns wait;
        go rest)
  in
  go (overload_backoff_schedule ~retries ~base_ns ~seed)

let min_chunk_bytes = 128
let default_chunk_bytes = 16 * 1024
let default_spill_threshold = 4 * 1024
let default_admission_budget = 4 * 1024 * 1024
let default_clear_flush_threshold = 32

module type SHARD_PTM = Romulus.Recoverable.S

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
  | Prepare_restarts
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
      ( Prepare_restarts, "prepare_restarts",
        "participant PREPAREs streamed again after a captured image went \
         stale" );
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

  (* Resource-governance knobs, fixed at [open_db]. *)
  type config = {
    initial_buckets : int;
    chunk_bytes : int;
    spill_threshold : int;
    admission_budget : int;
    clear_flush_threshold : int;
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

  (* The routing directory's volatile image (the persistent record — if
     any — lives in shard 0).  [epoch] counts completed resizes; the
     migration window, when open, has already re-pointed [assignment]
     for the moving slots (the "new epoch" route). *)
  type router = {
    mutable epoch : int;
    mutable n_slots : int;
    mutable assignment : int array; (* slot -> shard *)
    mutable migration : mig option;
  }

  (* One open store, shared by every handle; ['c] is the commit
     protocol's volatile state, which only [Shard_commit] reads. *)
  type 'c t = {
    (* [None] when the shard's engine could not be opened or recovered;
       the slot keeps its region (and health verdict) so stats, repair
       and snapshot restore still have somewhere to stand. *)
    mutable shard_arr : shard option array;
    (* one region per shard, always populated — even for down shards *)
    mutable region_arr : Pmem.Region.t array;
    mutable health_arr : health array;
    batch : batch option;
    config : config;
    router : router;
    counters : Counters.t;
    commit : 'c;
  }

  let shards t = Array.length t.region_arr
  let slot_of_key t k = Shard_records.route_hash k mod t.router.n_slots
  let shard_of_key t k = t.router.assignment.(slot_of_key t k)
  let tick t c n = Counters.count t.counters c n

  (* ---- availability gates ----

     [raw]: the engine, for protocol/recovery machinery that has already
     established the shard is reachable.  [rw]: write availability
     (Healthy only).  The read gate is [Sharded_db]'s, on the get path.
     Each rejection is metered on the refusing shard and raises the typed
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

  let rw t i =
    match t.health_arr.(i) with
    | Healthy -> raw t i
    | Degraded _ | Quarantined _ -> unavailable t i

  (* The shard can participate in recovery-side reconciliation: its
     engine is open and it is not quarantined. *)
  let engine_up t i =
    Option.is_some t.shard_arr.(i)
    && (match t.health_arr.(i) with Quarantined _ -> false | _ -> true)

  let healthy t i =
    Option.is_some t.shard_arr.(i) && t.health_arr.(i) = Healthy

  let apply_op s (k, v) =
    match v with
    | Some v -> ignore (Map_.put s.map k v : bool)
    | None -> ignore (Map_.remove s.map k : bool)
end
