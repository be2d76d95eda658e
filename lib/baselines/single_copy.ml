(* Detection-only media scrub of the single-copy baselines ({!Undolog},
   {!Redolog}).  Such a region keeps one copy of every line, so a sidecar
   CRC miss has no twin to repair from: it is always
   [Romulus.Engine.Unrepairable] with state "none", and a salvage scrub
   collects every miss instead of raising on the first.  The walk covers
   the header, the roots and the used arena span, [0, frontier), which is
   also the single media span. *)

module Make (P : sig
  type t

  val open_region : Pmem.Region.t -> t
  val region : t -> Pmem.Region.t
  val recover : t -> unit
  val frontier : t -> int (* end of the used arena span *)
  val guard : t -> unit (* refuses a scrub the PTM's state forbids *)
end) : Romulus.Recoverable.MEDIA with type t := P.t = struct
  let scrub_with ~salvage t =
    P.guard t;
    let r = P.region t in
    let stats = Pmem.Region.stats r in
    let line = Pmem.Region.line_size r in
    let last = (P.frontier t - 1) / line in
    let lost = ref [] in
    (* the scrub kernel over the one span (a twin offset of 0), stopping
       at each bad line, or past [last]; the lines it passed are counted
       in bulk *)
    let l = ref 0 in
    while !l <= last do
      let first = !l in
      let found = Pmem.Region.scan_pairs r ~first ~last ~twin:0 in
      let bad = found lsr 2 in
      stats.Pmem.Stats.scrubbed_lines <-
        stats.Pmem.Stats.scrubbed_lines + min bad last - first + 1;
      if found land 3 <> 0 then begin
        stats.Pmem.Stats.unrepairable_lines <-
          stats.Pmem.Stats.unrepairable_lines + 1;
        (* salvage mode records the loss and keeps walking; nothing is
           silently blessed, as a later read still raises [Media_error] *)
        if salvage then lost := (bad * line, "none") :: !lost
        else
          raise
            (Romulus.Engine.Unrepairable
               { offset = bad * line; state = "none" })
      end;
      l := bad + 1
    done;
    { Romulus.Engine.scrubbed = last + 1; repaired = 0;
      unrepairable = List.rev !lost }

  let scrub t = scrub_with ~salvage:false t
  let scrub_salvage t = scrub_with ~salvage:true t

  (* the open does not scrub (recovery replays the log without a media
     pass), so the verdict takes one salvage scrub after it *)
  let open_salvage r =
    let t = P.open_region r in
    (t, (scrub_salvage t).Romulus.Engine.unrepairable)

  let recover_salvage t =
    let report = scrub_salvage t in
    P.recover t;
    report.Romulus.Engine.unrepairable

  let media_spans t = [ (0, P.frontier t) ]
end
