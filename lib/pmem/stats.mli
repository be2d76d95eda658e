(** Instrumentation counters for a persistent-memory region: the
    persistence primitives that the region, the PTM engines and the
    baselines tick.  Layers above a PTM keep their own counter sets.
    These live with the region, so they survive a reopen over it. *)

type t = {
  mutable pwbs : int;        (** persist write-backs issued *)
  mutable pfences : int;     (** persist fences issued *)
  mutable psyncs : int;      (** persist syncs issued *)
  mutable loads : int;       (** word/blob loads from the region *)
  mutable stores : int;      (** word/blob stores, one per store call (a copy is not one) *)
  mutable nvm_bytes : int;   (** every byte stored into the region *)
  mutable user_bytes : int;  (** payload bytes credited by the PTM *)
  mutable load_bytes : int;  (** every byte loaded from the region *)
  mutable copy_calls : int;  (** region-internal copied ranges (replication, recovery) *)
  mutable replicated_bytes : int; (** bytes moved by region-internal copies *)
  mutable commits : int;     (** durably committed transactions (ticked by the engine) *)
  mutable delay_ns : int;    (** virtual latency injected by the fence profile *)
  mutable crashes : int;     (** simulated crashes *)
  mutable tx_aborts : int;   (** transactions aborted and rolled back (ticked by the PTM) *)
  mutable scrubbed_lines : int;     (** lines whose sidecar CRC a scrub verified *)
  mutable repaired_lines : int;     (** bad lines a scrub rewrote from their twin *)
  mutable unrepairable_lines : int; (** bad lines no twin could repair *)
  mutable media_errors : int;       (** loads that hit a line failing its CRC *)
}

val create : unit -> t
val reset : t -> unit

(** Independent copy of the current counter values. *)
val snapshot : t -> t

(** Counters accumulated between [past] and [now]. *)
val since : now:t -> past:t -> t

(** Field-wise sum of the given counter records, as a fresh independent
    record — the aggregate view of a multi-region (sharded) store. *)
val aggregate : t list -> t

(** [pfences + psyncs] — the persistence-fence count the paper reports. *)
val fences : t -> int

(** [nvm_bytes / user_bytes]; [nan] when no user bytes were credited. *)
val write_amplification : t -> float

val pp : Format.formatter -> t -> unit
