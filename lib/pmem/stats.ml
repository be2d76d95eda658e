(* Instrumentation counters for a persistent-memory region.

   [nvm_bytes] counts every byte stored into the region (user data, logs,
   allocator metadata, twin-copy replication), while [user_bytes] is
   credited explicitly by a PTM for the payload the user asked to store.
   Write amplification is [nvm_bytes / user_bytes].

   [copy_calls]/[replicated_bytes] break out the region-internal copies
   (twin-copy replication plus recovery), and [commits] is ticked by a PTM
   engine once per durably committed transaction, which is what makes
   per-transaction rates such as [pwbs_per_tx] derivable from raw counters.

   [delay_ns] accumulates the virtual latency injected by the active fence
   profile; benchmark harnesses add it to wall-clock time so that emulated
   STT-RAM / PCM latencies are deterministic rather than spin-waited. *)

type t = {
  mutable pwbs : int;
  mutable pfences : int;
  mutable psyncs : int;
  mutable loads : int;
  mutable stores : int;
  mutable nvm_bytes : int;
  mutable user_bytes : int;
  mutable load_bytes : int;
  mutable copy_calls : int;
  mutable replicated_bytes : int;
  mutable commits : int;
  mutable delay_ns : int;
  mutable crashes : int;
  mutable tx_aborts : int;
  mutable scrubbed_lines : int;
  mutable repaired_lines : int;
  mutable unrepairable_lines : int;
  mutable media_errors : int;
  mutable intent_prepares : int;
  mutable coordinator_flips : int;
  mutable deferred_clears : int;
  mutable rolled_forward : int;
  mutable rolled_back : int;
  mutable chunks_written : int;
  mutable chunks_spilled : int;
  mutable overload_rejections : int;
  mutable clear_flushes : int;
  mutable migrations_started : int;
  mutable migrations_resumed : int;
  mutable migrations_completed : int;
  mutable keys_migrated : int;
  mutable double_reads : int;
  mutable health_degraded : int;
  mutable health_quarantined : int;
  mutable health_repaired : int;
  mutable repair_attempts : int;
  mutable repair_snapshot_restores : int;
  mutable shards_evacuated : int;
  mutable keys_evacuated : int;
  mutable unavailable_rejections : int;
  mutable group_commits : int;
  mutable group_size_sum : int;
  mutable group_size_max : int;
  mutable fences_saved : int;
  mutable merged_intents : int;
  mutable async_acks : int;
  mutable flushes : int;
}

let create () =
  { pwbs = 0; pfences = 0; psyncs = 0; loads = 0; stores = 0;
    nvm_bytes = 0; user_bytes = 0; load_bytes = 0; copy_calls = 0;
    replicated_bytes = 0; commits = 0; delay_ns = 0; crashes = 0;
    tx_aborts = 0; scrubbed_lines = 0; repaired_lines = 0;
    unrepairable_lines = 0; media_errors = 0; intent_prepares = 0;
    coordinator_flips = 0; deferred_clears = 0; rolled_forward = 0;
    rolled_back = 0; chunks_written = 0; chunks_spilled = 0;
    overload_rejections = 0; clear_flushes = 0; migrations_started = 0;
    migrations_resumed = 0; migrations_completed = 0; keys_migrated = 0;
    double_reads = 0; health_degraded = 0; health_quarantined = 0;
    health_repaired = 0; repair_attempts = 0; repair_snapshot_restores = 0;
    shards_evacuated = 0; keys_evacuated = 0; unavailable_rejections = 0;
    group_commits = 0; group_size_sum = 0; group_size_max = 0;
    fences_saved = 0; merged_intents = 0; async_acks = 0; flushes = 0 }

let reset t =
  t.pwbs <- 0; t.pfences <- 0; t.psyncs <- 0; t.loads <- 0; t.stores <- 0;
  t.nvm_bytes <- 0; t.user_bytes <- 0; t.load_bytes <- 0; t.copy_calls <- 0;
  t.replicated_bytes <- 0; t.commits <- 0; t.delay_ns <- 0; t.crashes <- 0;
  t.tx_aborts <- 0; t.scrubbed_lines <- 0; t.repaired_lines <- 0;
  t.unrepairable_lines <- 0; t.media_errors <- 0; t.intent_prepares <- 0;
  t.coordinator_flips <- 0; t.deferred_clears <- 0; t.rolled_forward <- 0;
  t.rolled_back <- 0; t.chunks_written <- 0; t.chunks_spilled <- 0;
  t.overload_rejections <- 0; t.clear_flushes <- 0;
  t.migrations_started <- 0; t.migrations_resumed <- 0;
  t.migrations_completed <- 0; t.keys_migrated <- 0; t.double_reads <- 0;
  t.health_degraded <- 0; t.health_quarantined <- 0; t.health_repaired <- 0;
  t.repair_attempts <- 0; t.repair_snapshot_restores <- 0;
  t.shards_evacuated <- 0; t.keys_evacuated <- 0;
  t.unavailable_rejections <- 0;
  t.group_commits <- 0; t.group_size_sum <- 0; t.group_size_max <- 0;
  t.fences_saved <- 0; t.merged_intents <- 0; t.async_acks <- 0;
  t.flushes <- 0

let snapshot t = { t with pwbs = t.pwbs }

(* Counters accumulated between [past] and [now]. *)
let since ~now ~past =
  { pwbs = now.pwbs - past.pwbs;
    pfences = now.pfences - past.pfences;
    psyncs = now.psyncs - past.psyncs;
    loads = now.loads - past.loads;
    stores = now.stores - past.stores;
    nvm_bytes = now.nvm_bytes - past.nvm_bytes;
    user_bytes = now.user_bytes - past.user_bytes;
    load_bytes = now.load_bytes - past.load_bytes;
    copy_calls = now.copy_calls - past.copy_calls;
    replicated_bytes = now.replicated_bytes - past.replicated_bytes;
    commits = now.commits - past.commits;
    delay_ns = now.delay_ns - past.delay_ns;
    crashes = now.crashes - past.crashes;
    tx_aborts = now.tx_aborts - past.tx_aborts;
    scrubbed_lines = now.scrubbed_lines - past.scrubbed_lines;
    repaired_lines = now.repaired_lines - past.repaired_lines;
    unrepairable_lines = now.unrepairable_lines - past.unrepairable_lines;
    media_errors = now.media_errors - past.media_errors;
    intent_prepares = now.intent_prepares - past.intent_prepares;
    coordinator_flips = now.coordinator_flips - past.coordinator_flips;
    deferred_clears = now.deferred_clears - past.deferred_clears;
    rolled_forward = now.rolled_forward - past.rolled_forward;
    rolled_back = now.rolled_back - past.rolled_back;
    chunks_written = now.chunks_written - past.chunks_written;
    chunks_spilled = now.chunks_spilled - past.chunks_spilled;
    overload_rejections = now.overload_rejections - past.overload_rejections;
    clear_flushes = now.clear_flushes - past.clear_flushes;
    migrations_started = now.migrations_started - past.migrations_started;
    migrations_resumed = now.migrations_resumed - past.migrations_resumed;
    migrations_completed =
      now.migrations_completed - past.migrations_completed;
    keys_migrated = now.keys_migrated - past.keys_migrated;
    double_reads = now.double_reads - past.double_reads;
    health_degraded = now.health_degraded - past.health_degraded;
    health_quarantined = now.health_quarantined - past.health_quarantined;
    health_repaired = now.health_repaired - past.health_repaired;
    repair_attempts = now.repair_attempts - past.repair_attempts;
    repair_snapshot_restores =
      now.repair_snapshot_restores - past.repair_snapshot_restores;
    shards_evacuated = now.shards_evacuated - past.shards_evacuated;
    keys_evacuated = now.keys_evacuated - past.keys_evacuated;
    unavailable_rejections =
      now.unavailable_rejections - past.unavailable_rejections;
    group_commits = now.group_commits - past.group_commits;
    group_size_sum = now.group_size_sum - past.group_size_sum;
    group_size_max = now.group_size_max - past.group_size_max;
    fences_saved = now.fences_saved - past.fences_saved;
    merged_intents = now.merged_intents - past.merged_intents;
    async_acks = now.async_acks - past.async_acks;
    flushes = now.flushes - past.flushes }

(* Field-wise sum, as a fresh independent record: the cross-shard view of
   a store whose shards each meter their own region. *)
let aggregate ts =
  let a = create () in
  List.iter
    (fun t ->
      a.pwbs <- a.pwbs + t.pwbs;
      a.pfences <- a.pfences + t.pfences;
      a.psyncs <- a.psyncs + t.psyncs;
      a.loads <- a.loads + t.loads;
      a.stores <- a.stores + t.stores;
      a.nvm_bytes <- a.nvm_bytes + t.nvm_bytes;
      a.user_bytes <- a.user_bytes + t.user_bytes;
      a.load_bytes <- a.load_bytes + t.load_bytes;
      a.copy_calls <- a.copy_calls + t.copy_calls;
      a.replicated_bytes <- a.replicated_bytes + t.replicated_bytes;
      a.commits <- a.commits + t.commits;
      a.delay_ns <- a.delay_ns + t.delay_ns;
      a.crashes <- a.crashes + t.crashes;
      a.tx_aborts <- a.tx_aborts + t.tx_aborts;
      a.scrubbed_lines <- a.scrubbed_lines + t.scrubbed_lines;
      a.repaired_lines <- a.repaired_lines + t.repaired_lines;
      a.unrepairable_lines <- a.unrepairable_lines + t.unrepairable_lines;
      a.media_errors <- a.media_errors + t.media_errors;
      a.intent_prepares <- a.intent_prepares + t.intent_prepares;
      a.coordinator_flips <- a.coordinator_flips + t.coordinator_flips;
      a.deferred_clears <- a.deferred_clears + t.deferred_clears;
      a.rolled_forward <- a.rolled_forward + t.rolled_forward;
      a.rolled_back <- a.rolled_back + t.rolled_back;
      a.chunks_written <- a.chunks_written + t.chunks_written;
      a.chunks_spilled <- a.chunks_spilled + t.chunks_spilled;
      a.overload_rejections <- a.overload_rejections + t.overload_rejections;
      a.clear_flushes <- a.clear_flushes + t.clear_flushes;
      a.migrations_started <- a.migrations_started + t.migrations_started;
      a.migrations_resumed <- a.migrations_resumed + t.migrations_resumed;
      a.migrations_completed <-
        a.migrations_completed + t.migrations_completed;
      a.keys_migrated <- a.keys_migrated + t.keys_migrated;
      a.double_reads <- a.double_reads + t.double_reads;
      a.health_degraded <- a.health_degraded + t.health_degraded;
      a.health_quarantined <- a.health_quarantined + t.health_quarantined;
      a.health_repaired <- a.health_repaired + t.health_repaired;
      a.repair_attempts <- a.repair_attempts + t.repair_attempts;
      a.repair_snapshot_restores <-
        a.repair_snapshot_restores + t.repair_snapshot_restores;
      a.shards_evacuated <- a.shards_evacuated + t.shards_evacuated;
      a.keys_evacuated <- a.keys_evacuated + t.keys_evacuated;
      a.unavailable_rejections <-
        a.unavailable_rejections + t.unavailable_rejections;
      a.group_commits <- a.group_commits + t.group_commits;
      a.group_size_sum <- a.group_size_sum + t.group_size_sum;
      (* summed, not maxed: keeps [since (aggregate [a; a]) a = a] and so
         the catch-all audit; a per-shard max stays meaningful because
         each shard meters its own region *)
      a.group_size_max <- a.group_size_max + t.group_size_max;
      a.fences_saved <- a.fences_saved + t.fences_saved;
      a.merged_intents <- a.merged_intents + t.merged_intents;
      a.async_acks <- a.async_acks + t.async_acks;
      a.flushes <- a.flushes + t.flushes)
    ts;
  a

let fences t = t.pfences + t.psyncs

let write_amplification t =
  if t.user_bytes = 0 then nan
  else float_of_int t.nvm_bytes /. float_of_int t.user_bytes

let per_commit count t =
  if t.commits = 0 then nan
  else float_of_int count /. float_of_int t.commits

let pwbs_per_tx t = per_commit t.pwbs t
let copies_per_tx t = per_commit t.copy_calls t
let replicated_bytes_per_tx t = per_commit t.replicated_bytes t

let pp ppf t =
  Format.fprintf ppf
    "pwb=%d pfence=%d psync=%d loads=%d stores=%d nvm=%dB user=%dB \
     loaded=%dB copies=%d replicated=%dB commits=%d amp=%.2f delay=%dns \
     crashes=%d aborts=%d scrubbed=%d repaired=%d unrepairable=%d \
     media_errors=%d prepares=%d flips=%d deferred_clears=%d fwd=%d back=%d \
     chunks=%d spilled=%d overloads=%d clear_flushes=%d \
     migrations=%d/%d/%d keys_migrated=%d double_reads=%d \
     health=%d/%d/%d repair_attempts=%d restores=%d evacuated=%d/%dkeys \
     unavailable=%d groups=%d group_size=%d/max%d fences_saved=%d \
     merged_intents=%d async_acks=%d group_flushes=%d"
    t.pwbs t.pfences t.psyncs t.loads t.stores t.nvm_bytes t.user_bytes
    t.load_bytes t.copy_calls t.replicated_bytes t.commits
    (write_amplification t) t.delay_ns t.crashes t.tx_aborts
    t.scrubbed_lines t.repaired_lines t.unrepairable_lines t.media_errors
    t.intent_prepares t.coordinator_flips t.deferred_clears t.rolled_forward
    t.rolled_back t.chunks_written t.chunks_spilled t.overload_rejections
    t.clear_flushes t.migrations_started t.migrations_resumed
    t.migrations_completed t.keys_migrated t.double_reads
    t.health_degraded t.health_quarantined t.health_repaired
    t.repair_attempts t.repair_snapshot_restores t.shards_evacuated
    t.keys_evacuated t.unavailable_rejections t.group_commits
    t.group_size_sum t.group_size_max t.fences_saved t.merged_intents
    t.async_acks t.flushes
