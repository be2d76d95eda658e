(** Flat-combining + C-RW-WP concurrency front-end over the twin-copy
    engine (§5.2); instantiated as {!Basic} (whole-span replication) and
    {!Logged} (volatile redo log). *)

module type CONFIG = sig
  val mode : Engine.mode
  val name : string
end

module Make (_ : CONFIG) : sig
  include Ptm_intf.S

  (** {!open_region}, also returning the data-loss lines the open's
      recovery scrub tolerated (see {!Engine.open_salvage}). *)
  val open_salvage : Pmem.Region.t -> t * (int * string) list

  (** The underlying twin-copy engine (tests/benchmarks). *)
  val engine : t -> Engine.t

  (** Re-run crash recovery after a simulated power failure. *)
  val recover : t -> unit

  (** Salvage-mode recovery (see {!Engine.recover_salvage}): returns the
      tolerated data-loss lines instead of raising on IDL-state damage. *)
  val recover_salvage : t -> (int * string) list

  (** On-demand twin-copy scrub-and-repair (see {!Engine.scrub}). *)
  val scrub : t -> Engine.scrub_report

  (** Salvage-mode scrub (see {!Engine.scrub_salvage}). *)
  val scrub_salvage : t -> Engine.scrub_report

  (** Fault-campaign target ranges (see {!Engine.media_spans}). *)
  val media_spans : t -> (int * int) list
  val heap_end : t -> int

  (** Structural check of the persistent allocator. *)
  val allocator_check : t -> (unit, string) result
end
