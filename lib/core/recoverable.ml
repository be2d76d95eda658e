(** The recoverable-PTM signature: {!Ptm_intf.S} plus the recovery, media
    scrub and diagnostics hooks that crash campaigns, shards and
    benchmarks drive.  The three Romulus variants ({!Basic}, {!Logged},
    {!Lr}) and both single-copy baselines provide it; only the
    single-threaded {!Seq_front} does not. *)

(** The media hooks.  A twin-copy PTM repairs a bad line from its twin;
    a single-copy baseline has no twin, so there every sidecar-CRC miss
    is unrepairable (state ["none"]). *)
module type MEDIA = sig
  type t

  (** [open_region], also returning the ([offset], state) data-loss lines
      a salvage scrub of the opened region would report (see
      {!Engine.open_salvage}).  The twin-copy PTMs take them from the
      open's own recovery scrub, so the medium is read once; the
      baselines, whose open does not scrub, run one {!scrub_salvage}. *)
  val open_salvage : Pmem.Region.t -> t * (int * string) list

  (** Salvage-mode recovery: returns the tolerated data-loss lines
      instead of refusing the mount over them (see
      {!Engine.recover_salvage}). *)
  val recover_salvage : t -> (int * string) list

  (** Verify (and, with a twin, repair) the used spans' sidecar CRCs;
      raises {!Engine.Unrepairable} on the first line nothing can vouch
      for (see {!Engine.scrub}). *)
  val scrub : t -> Engine.scrub_report

  (** Salvage-mode scrub: tolerated lines are collected into
      [unrepairable] instead of raised (see {!Engine.scrub_salvage}).
      Reads of a lost line still raise [Pmem.Region.Media_error]. *)
  val scrub_salvage : t -> Engine.scrub_report

  (** Byte ranges ([offset], [length]) a media-fault campaign may target
      such that every injected fault is detectable by {!scrub}. *)
  val media_spans : t -> (int * int) list
end

module type S = sig
  include Ptm_intf.S

  (** Re-run crash recovery after a simulated power failure. *)
  val recover : t -> unit

  include MEDIA with type t := t

  (** End of the heap, read without a load: every record lies below it. *)
  val heap_end : t -> int

  (** Structural check of the persistent allocator. *)
  val allocator_check : t -> (unit, string) result
end
