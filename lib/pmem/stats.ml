(* Instrumentation counters for a persistent-memory region.

   [nvm_bytes] counts every byte stored into the region (user data, logs,
   allocator metadata, twin-copy replication), while [user_bytes] is
   credited explicitly by a PTM for the payload the user asked to store.
   Write amplification is [nvm_bytes / user_bytes].

   [copy_calls]/[replicated_bytes] break out the region-internal copies
   (twin-copy replication plus recovery), and [commits] is ticked by a PTM
   engine once per durably committed transaction, which is what makes
   per-transaction rates (pwbs per commit, say) derivable from raw
   counters.

   [delay_ns] accumulates the virtual latency injected by the active fence
   profile; benchmark harnesses add it to wall-clock time so that emulated
   STT-RAM / PCM latencies are deterministic rather than spin-waited.

   Every whole-record operation below is a fold over [fields], the one
   place that lists the counters besides the type itself. *)

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
}

let fields =
  [ ("pwbs", (fun t -> t.pwbs), fun t v -> t.pwbs <- v);
    ("pfences", (fun t -> t.pfences), fun t v -> t.pfences <- v);
    ("psyncs", (fun t -> t.psyncs), fun t v -> t.psyncs <- v);
    ("loads", (fun t -> t.loads), fun t v -> t.loads <- v);
    ("stores", (fun t -> t.stores), fun t v -> t.stores <- v);
    ("nvm_bytes", (fun t -> t.nvm_bytes), fun t v -> t.nvm_bytes <- v);
    ("user_bytes", (fun t -> t.user_bytes), fun t v -> t.user_bytes <- v);
    ("load_bytes", (fun t -> t.load_bytes), fun t v -> t.load_bytes <- v);
    ("copy_calls", (fun t -> t.copy_calls), fun t v -> t.copy_calls <- v);
    ( "replicated_bytes",
      (fun t -> t.replicated_bytes),
      fun t v -> t.replicated_bytes <- v );
    ("commits", (fun t -> t.commits), fun t v -> t.commits <- v);
    ("delay_ns", (fun t -> t.delay_ns), fun t v -> t.delay_ns <- v);
    ("crashes", (fun t -> t.crashes), fun t v -> t.crashes <- v);
    ("tx_aborts", (fun t -> t.tx_aborts), fun t v -> t.tx_aborts <- v);
    ( "scrubbed_lines",
      (fun t -> t.scrubbed_lines),
      fun t v -> t.scrubbed_lines <- v );
    ( "repaired_lines",
      (fun t -> t.repaired_lines),
      fun t v -> t.repaired_lines <- v );
    ( "unrepairable_lines",
      (fun t -> t.unrepairable_lines),
      fun t v -> t.unrepairable_lines <- v );
    ("media_errors", (fun t -> t.media_errors), fun t v -> t.media_errors <- v)
  ]

let create () =
  { pwbs = 0; pfences = 0; psyncs = 0; loads = 0; stores = 0;
    nvm_bytes = 0; user_bytes = 0; load_bytes = 0; copy_calls = 0;
    replicated_bytes = 0; commits = 0; delay_ns = 0; crashes = 0;
    tx_aborts = 0; scrubbed_lines = 0; repaired_lines = 0;
    unrepairable_lines = 0; media_errors = 0 }

let reset t = List.iter (fun (_, _, set) -> set t 0) fields
let snapshot t = { t with pwbs = t.pwbs }

(* Field-wise [f a b], as a fresh independent record. *)
let map2 f a b =
  let r = create () in
  List.iter (fun (_, get, set) -> set r (f (get a) (get b))) fields;
  r

(* Counters accumulated between [past] and [now]. *)
let since ~now ~past = map2 ( - ) now past

(* Field-wise sum, as a fresh independent record: the cross-shard view of
   a store whose shards each meter their own region. *)
let aggregate ts = List.fold_left (map2 ( + )) (create ()) ts

let fences t = t.pfences + t.psyncs

let write_amplification t =
  if t.user_bytes = 0 then nan
  else float_of_int t.nvm_bytes /. float_of_int t.user_bytes

let pp ppf t =
  List.iter (fun (name, get, _) -> Format.fprintf ppf "%s=%d " name (get t))
    fields;
  Format.fprintf ppf "amp=%.2f" (write_amplification t)
