(* The twin-copy persistence engine: Algorithm 1 of the paper, plus the
   volatile-redo-log optimization of §4.7, decomposed so the Left-Right
   front-end can interleave reader toggles with the commit steps.

   Region layout (Figure 2):

     0      magic
     8      state: IDL | MUT | CPY
     64     main region: [ roots | allocator arena (metadata + heap) ]
     64+S   back region: byte-per-byte replica of main

   [state] tells recovery which copy is consistent: IDL = both, MUT = back,
   CPY = main.  The back region is never addressed by user code: it holds
   pointer values that refer into main ("synthetic pointers" are produced
   by adding [main_size] to every address a back-reader dereferences).

   Store interposition (the persist<T> of §3.2): every store inside a
   transaction appends its range to the volatile log (in Logged mode) and
   records the modified cache line in a per-transaction dirty-line set.
   The write-backs are deferred: commit_main flushes each dirty line
   exactly once, right before the CPY fence, so a transaction that stores
   repeatedly into the same line pays one pwb instead of one per store.
   Algorithm 1's ordering is preserved — every main pwb still precedes
   the fence that publishes state = CPY.  In Logged mode the redo log is
   coalesced into maximal intervals before replication, so back receives
   exactly the logged ranges with one copy per interval.  Those intervals
   are the connected components of the logged bytes, unique whatever
   order the stores came in and however the log sorts them, so the
   copies, pwbs and fences of a commit, and the bytes they persist, are
   fixed by the set of bytes the transaction wrote.

   The allocator runs over the same interposed memory, so its metadata
   rolls back with the transaction (§4.4). *)

type mode = Full_copy | Logged

exception Store_outside_transaction

exception Root_out_of_bounds of int

exception Recovery_error of string

(* An update transaction whose closure (or pre-durability commit
   machinery) raised: the transaction was rolled back — main restored
   from back, state republished as IDL — and the original exception is
   re-raised wrapped here, with the backtrace captured at the abort. *)
exception Tx_aborted of { cause : exn; backtrace : string }

(* The typed abort, for every PTM and batch layer: a simulated crash and
   an already-typed abort propagate as they are, anything else is
   wrapped. *)
let raise_abort cause backtrace =
  match cause with
  | Tx_aborted _ | Pmem.Region.Crash_point -> raise cause
  | _ -> raise (Tx_aborted { cause; backtrace })

(* A scrub found a line whose sidecar CRC fails and no twin can repair it:
   both copies of the line are bad, the line has no twin (headers,
   single-copy baselines), or the protocol state forbids trusting the
   surviving copy.  [state] names the protocol state the scrub ran under
   ("IDL"/"MUT"/"CPY", "header" for untwinned header lines, "none" for
   the single-copy baselines). *)
exception Unrepairable of { offset : int; state : string }

type scrub_report = {
  scrubbed : int;
  repaired : int;
  unrepairable : (int * string) list;
      (* salvage mode only: lines no twin could vouch for, tolerated
         instead of raised because recovery did not need to copy them *)
}

let recovery_error fmt =
  Printf.ksprintf (fun s -> raise (Recovery_error s)) fmt

(* Failpoint sites: the exact windows of Algorithm 1 the proofs reason
   about, targetable by name from crash campaigns (see lib/fault).
   Raise-capable sites sit strictly before the CPY durability point, so
   an injected exception there must abort the transaction cleanly; the
   post-CPY and recovery windows are crash-only. *)
let fp_mut_published = Fault.site ~can_raise:true "engine.begin.mut_published"
let fp_before_flush = Fault.site ~can_raise:true "engine.commit.before_flush"
let fp_cpy_published = Fault.site "engine.commit.cpy_published"
let fp_replicate_copied = Fault.site "engine.replicate.copied"
let fp_recover_copied = Fault.site "engine.recover.copied"
let fp_format_before_magic = Fault.site "engine.format.before_magic"

(* Abort-path windows: main restored from back but IDL not yet durable,
   and the symmetric point right after it is.  Crash-only — recovery
   from a crash inside the abort path must converge to the pre-state. *)
let fp_abort_restored = Fault.site "engine.abort.restored"
let fp_abort_idl_published = Fault.site "engine.abort.idl_published"

(* Repair-window failpoints: a bad line was detected but its twin's
   content is not yet rewritten, and the point right after the repair is
   durable.  Crash-only — a crash anywhere inside the repair must leave
   the region recoverable (the bad line is still bad, or healed; never
   half-trusted). *)
let fp_scrub_bad_line = Fault.site "engine.scrub.bad_line"
let fp_scrub_repaired = Fault.site "engine.scrub.repaired"

let magic_value = 0x524F4D554C5553 (* "ROMULUS" *)

let o_magic = 0
let o_state = 8
let header_bytes = 64

let st_idl = 0
let st_mut = 1
let st_cpy = 2

module Mem = struct
  type t = {
    r : Pmem.Region.t;
    mutable log : Redo_log.t option;
    dirty : Pmem.Line_set.t;    (* lines with deferred write-backs *)
    line_shift : int;
    pwb_dirty : int -> bool -> unit;
        (* the write-back of one deferred line, built once so a commit
           allocates no closure to drain the set *)
  }

  let make r =
    let line = Pmem.Region.line_size r in
    let rec log2 n acc = if n = 1 then acc else log2 (n lsr 1) (acc + 1) in
    let line_shift = log2 line 0 in
    { r; log = None;
      dirty = Pmem.Line_set.create ~lines:(Pmem.Region.size r lsr line_shift);
      line_shift;
      pwb_dirty = (fun line _ -> Pmem.Region.pwb r (line lsl line_shift)) }

  let mark_dirty m off len =
    if len > 0 then begin
      let first = off lsr m.line_shift in
      let last = (off + len - 1) lsr m.line_shift in
      for line = first to last do
        Pmem.Line_set.set_dirty m.dirty line
      done
    end

  let load m off = Pmem.Region.load m.r off

  (* The write step of every interposed store (word, blob, root), taken
     before the in-place store: log the range, so an overflowing log
     aborts with main untouched, and mark its lines for write-back. *)
  let write m off len =
    (match m.log with
     | Some l -> Redo_log.add l ~off ~len
     | None -> ());
    mark_dirty m off len

  let store m off v =
    write m off 8;
    Pmem.Region.store m.r off v

  (* Issue the deferred write-backs: one pwb per dirty line.  Must run
     before the next fence that orders main against the state word. *)
  let flush_dirty m = Pmem.Line_set.drain_all m.dirty m.pwb_dirty

  (* Forget the deferred write-backs without issuing them (the caller has
     flushed the covering ranges explicitly, or a crash made them moot). *)
  let discard_dirty m = Pmem.Line_set.drain_all m.dirty (fun _ _ -> ())
end

module A = Palloc.Make (Mem)

type t = {
  r : Pmem.Region.t;
  mem : Mem.t;
  arena : A.t;
  mode : mode;
  log : Redo_log.t;
  main_start : int;
  main_size : int;
  arena_base : int;
  mutable in_tx : bool;
  to_back : off:int -> len:int -> unit;
  to_main : off:int -> len:int -> unit;
      (* the per-range steps of Logged replication and abort, built once
         so a commit hands {!Redo_log.iter} no fresh closure *)
}

let main_start = header_bytes
let roots_bytes = 8 * Ptm_intf.root_slots

let layout r =
  let size = Pmem.Region.size r in
  let line = Pmem.Region.line_size r in
  let main_size = (size - main_start) / 2 land lnot (line - 1) in
  let arena_base = main_start + roots_bytes in
  if main_size < roots_bytes + Palloc.meta_bytes + 4096 then
    invalid_arg "Engine: region too small for twin copies";
  (main_size, arena_base)

(* Copy one logged range of main to back (replication), or back to main
   (a Logged abort), and write the destination back. *)
let copy_to_back r main_size ~off ~len =
  Pmem.Region.copy r ~src:off ~dst:(off + main_size) ~len;
  Pmem.Region.pwb_range r (off + main_size) len

let copy_to_main r main_size ~off ~len =
  Pmem.Region.copy r ~src:(off + main_size) ~dst:off ~len;
  Pmem.Region.pwb_range r off len

let make r mem arena ~mode ~main_size ~arena_base =
  { r; mem; arena; mode; log = Redo_log.create ();
    main_start; main_size; arena_base; in_tx = false;
    to_back = copy_to_back r main_size;
    to_main = copy_to_main r main_size }

let region t = t.r
let main_size t = t.main_size
let mode t = t.mode

let set_redo_capacity t c = Redo_log.set_capacity t.log c

(* End of main: no main offset a reader may dereference lies past it. *)
let heap_end t = t.main_start + t.main_size

(* Bytes of main that are meaningful: header-relative span from the start
   of main to the allocator frontier. *)
let used_span t = t.arena_base + A.used_bytes t.arena - t.main_start

(* ---- scrub: verify sidecar CRCs, repair from the twin ----

   The twin-copy layout is a latent replication scheme: a line whose
   per-line CRC fails in one copy can be rewritten from the other, under
   exactly the trust relation recovery already uses — IDL means both
   copies are consistent (either direction repairs), MUT means back is
   truth (only main may be repaired), CPY means main is truth (only back
   may be repaired).  Repairing *against* that relation could bless
   uncommitted or stale data, so a bad line in the truth copy whose twin
   cannot vouch for it is {!Unrepairable}.

   Untwinned lines — the 64-byte protocol header, and (with line sizes
   above 64) lines straddling a copy boundary — are detection-only.

   The walk visits the header, then main's used span, then back's, and
   repairs or refuses each bad line in that order.  Main's span is
   verified with its back twins by one kernel call per run of sound
   pairs ({!Pmem.Region.scan_pairs}): under IDL the twins are
   byte-identical, so one CRC checks both sidecars.  The back verdicts
   it yields are acted on later, in back's turn, and only while no
   repair has been entered since they were computed.

   The repair itself is an ordinary persisted store (store + pwb + fence),
   so it is covered by crash traps and the [engine.scrub.*] failpoints:
   a crash inside the repair window leaves the line either still-bad
   (re-detected and re-repaired by the scrub recovery runs first) or
   healed; a torn write-back over the degraded cell cannot heal it, so
   the stale sidecar keeps witnessing the fault. *)

let state_name s =
  if s = st_idl then "IDL"
  else if s = st_mut then "MUT"
  else if s = st_cpy then "CPY"
  else string_of_int s

let scrub_raw ?(salvage = false) r ~main_size ~arena_base =
  let stats = Pmem.Region.stats r in
  let line = Pmem.Region.line_size r in
  let rec log2 n acc = if n = 1 then acc else log2 (n lsr 1) (acc + 1) in
  let shift = log2 line 0 in
  let twin_d = main_size lsr shift in
  let scrubbed = ref 0 and repaired = ref 0 in
  let lost = ref [] in
  (* only clean lines are auditable: a dirty/pending line's next
     write-back supersedes whatever the medium holds *)
  let bad l =
    Pmem.Region.line_is_clean r ~line:l
    && not (Pmem.Region.media_ok r ~line:l)
  in
  let unrepairable ~tolerable l state =
    stats.Pmem.Stats.unrepairable_lines <-
      stats.Pmem.Stats.unrepairable_lines + 1;
    (* salvage mode tolerates data-loss lines recovery will not read:
       the shard can still serve every other line (reads of the lost
       line surface a typed Media_error).  Lines recovery must trust —
       the header, or any line under a state whose roll-forward/back
       would replicate it — stay fatal even in salvage mode. *)
    if salvage && tolerable then
      lost := (l lsl shift, state) :: !lost
    else raise (Unrepairable { offset = l lsl shift; state })
  in
  let visit n =
    scrubbed := !scrubbed + n;
    stats.Pmem.Stats.scrubbed_lines <- stats.Pmem.Stats.scrubbed_lines + n
  in
  (* header lines first: they hold the state word the trust relation
     depends on, and have no twin *)
  let hdr_last = (main_start - 1) lsr shift in
  for l = 0 to hdr_last do
    visit 1;
    if bad l then unrepairable ~tolerable:false l "header"
  done;
  let state = Pmem.Region.load r o_state in
  let sname = state_name state in
  (* under IDL recovery copies nothing, so an unrepairable line is pure
     data loss, not a poisoned roll-forward source *)
  let tolerable = state = st_idl in
  (* per-copy spans from the allocator frontiers; a frontier that fails
     validation (or sits in a bad line) degrades to a full-copy walk *)
  let span_of copy_base =
    match Pmem.Region.load r (arena_base + copy_base + Palloc.top_offset) with
    | top
      when top >= arena_base + Palloc.meta_bytes
           && top <= main_start + main_size -> top - main_start
    | _ -> main_size
    | exception Pmem.Region.Media_error _ -> main_size
  in
  let repair_entered = ref false in
  let repair ~dst ~src ~state =
    repair_entered := true;
    Fault.hit fp_scrub_bad_line;
    if bad src then unrepairable ~tolerable dst state
    else begin
      let content = Pmem.Region.load_bytes r (src lsl shift) line in
      Pmem.Region.store_bytes r (dst lsl shift) content;
      Pmem.Region.pwb_range r (dst lsl shift) line;
      Pmem.Region.pfence r;
      incr repaired;
      stats.Pmem.Stats.repaired_lines <-
        stats.Pmem.Stats.repaired_lines + 1;
      Fault.hit fp_scrub_repaired
    end
  in
  (* a bad line of the copy at [base]: repaired from [l + twin] when the
     state trusts that twin and the line lies wholly inside the copy,
     refused otherwise *)
  let act ~base ~twin ~repairable l =
    let fully_inside =
      l lsl shift >= base && (l + 1) lsl shift <= base + main_size
    in
    if fully_inside && repairable then
      repair ~dst:l ~src:(l + twin) ~state:sname
    else unrepairable ~tolerable l sname
  in
  let lines_of ~base ~span =
    if span > 0 then
      (max (hdr_last + 1) (base lsr shift), (base + span - 1) lsr shift)
    else (1, 0)
  in
  let back_base = main_start + main_size in
  let main_repairable = state = st_idl || state = st_mut in
  let back_repairable = state = st_idl || state = st_cpy in
  (* pass 1, main's span: {!Pmem.Region.scan_pairs} verifies main's
     lines with their back twins up to the next pair holding a bad line,
     and the lines it passed are counted in bulk.  A bad main line is
     acted on at once; a bad back line is held for pass 2, in a list in
     descending line order (normally empty).  Once a repair is entered
     pass 2 cannot use held verdicts, so the rest of the pass verifies
     main's lines alone. *)
  let m_first, m_last = lines_of ~base:main_start ~span:(span_of 0) in
  let back_bad = ref [] in
  let l = ref m_first in
  while !l <= m_last do
    let first = !l in
    if !repair_entered then begin
      visit 1;
      if bad first then
        act ~base:main_start ~twin:twin_d ~repairable:main_repairable first;
      l := first + 1
    end
    else begin
      let found =
        Pmem.Region.scan_pairs r ~first ~last:m_last ~twin:twin_d
      in
      (* [hit] is the bad pair, or [m_last + 1] when all were sound *)
      let hit = found lsr 2 and v = found land 3 in
      visit (min hit m_last - first + 1);
      if v land 2 <> 0 then back_bad := (hit + twin_d) :: !back_bad;
      if v land 1 <> 0 then
        act ~base:main_start ~twin:twin_d ~repairable:main_repairable hit;
      l := hit + 1
    end
  done;
  (* pass 2, back's span, in back-line order.  A back line whose twin
     pass 1 walked takes the verdict pass 1 found while no repair has
     been entered since (a repair stores, fences and hits failpoints);
     every other back line is verified here.  With nothing held and no
     repair entered, the walked twins are all sound and counted in bulk. *)
  let b_first, b_last = lines_of ~base:back_base ~span:(span_of main_size) in
  let paired_first = m_first + twin_d and paired_last = m_last + twin_d in
  (* held lines lie in [paired_first, paired_last], and b_first <=
     paired_first (main_size is whole lines), so the walk meets each *)
  let pending = ref (List.rev !back_bad) in
  let l = ref b_first in
  while !l <= b_last do
    let cur = !l in
    let recorded =
      (not !repair_entered) && cur >= paired_first && cur <= paired_last
    in
    match !pending with
    | [] when recorded ->
      let stop = min b_last paired_last in
      visit (stop - cur + 1);
      l := stop + 1
    | held ->
      visit 1;
      let is_bad =
        if not recorded then bad cur
        else
          match held with
          | b :: rest when b = cur ->
            pending := rest;
            true
          | _ -> false
      in
      if is_bad then
        act ~base:back_base ~twin:(-twin_d) ~repairable:back_repairable cur;
      l := cur + 1
  done;
  { scrubbed = !scrubbed; repaired = !repaired;
    unrepairable = List.rev !lost }

(* ---- raw recovery (Algorithm 1, recover()) ----
   Runs before the allocator is attached, using only region primitives.

   Everything recovery reads from the persistent header is validated
   before it is trusted: the state must name one of the three protocol
   states, and the allocator frontier recovered from the consistent copy
   must lie inside that copy.  A violated check means the medium does not
   hold what the protocol could ever have written — recovery refuses with
   {!Recovery_error} instead of copying garbage over the good twin. *)

let recover_raw ?salvage r ~main_size ~arena_base =
  (* media pass first: roll-forward/back copies whole spans, so a rotten
     line in the truth copy must be repaired (or refused as
     {!Unrepairable}) before it can be replicated over the good twin.
     In salvage mode the scrub tolerates IDL-state data-loss lines, and
     an IDL state means the match below is a no-op — so every tolerated
     line is by construction one recovery never copies. *)
  let report = scrub_raw ?salvage r ~main_size ~arena_base in
  let top_addr copy_base = arena_base + copy_base + Palloc.top_offset in
  let validate_top ~which top =
    if top < arena_base + Palloc.meta_bytes || top > main_start + main_size
    then
      recovery_error
        "Engine.recover: allocator frontier %d of the %s copy outside \
         [%d, %d]"
        top which
        (arena_base + Palloc.meta_bytes)
        (main_start + main_size)
  in
  let finish () =
    Pmem.Region.pfence r;
    Pmem.Region.store r o_state st_idl;
    Pmem.Region.pwb r o_state;
    Pmem.Region.pfence r
  in
  (match Pmem.Region.load r o_state with
  | s when s = st_idl -> ()
  | s when s = st_cpy ->
    (* main is consistent: bring back up to date *)
    let top = Pmem.Region.load r (top_addr 0) in
    validate_top ~which:"main" top;
    let span = top - main_start in
    Pmem.Region.copy r ~src:main_start ~dst:(main_start + main_size)
      ~len:span;
    Pmem.Region.pwb_range r (main_start + main_size) span;
    Fault.hit fp_recover_copied;
    finish ()
  | s when s = st_mut ->
    (* the transaction did not commit: revert main from back *)
    let top = Pmem.Region.load r (top_addr main_size) in
    validate_top ~which:"back" top;
    let span = top - main_start in
    Pmem.Region.copy r ~src:(main_start + main_size) ~dst:main_start
      ~len:span;
    Pmem.Region.pwb_range r main_start span;
    Fault.hit fp_recover_copied;
    finish ()
  | s ->
    recovery_error "Engine.recover: state %d is none of IDL/MUT/CPY" s);
  report.unrepairable

(* ---- creation ---- *)

let open_salvage ~mode r =
  let main_size, arena_base = layout r in
  let mem = Mem.make r in
  let magic = Pmem.Region.load r o_magic in
  if magic <> 0 && magic <> magic_value then
    (* neither freshly zeroed nor ours: formatting over it would destroy
       a region some other system may still care about *)
    recovery_error "Engine.open: unrecognized magic %#x" magic;
  if magic = magic_value then begin
    (* Open in salvage mode: a region whose only damage is IDL-state data
       loss (both twins of a line rotten, nothing to roll forward over)
       still mounts — the loss stays detectable by {!scrub} and reads of
       the lost lines raise [Media_error].  Damage recovery would have to
       copy still refuses the open with {!Unrepairable}.  The tolerated
       lines are returned: every other line the scrub visited is now
       sound, so they are the open's whole media verdict. *)
    let lost = recover_raw ~salvage:true r ~main_size ~arena_base in
    let arena = A.attach mem ~base:arena_base in
    (make r mem arena ~mode ~main_size ~arena_base, lost)
  end
  else begin
    (* format: initialize main, replicate to back, then publish the magic
       last so that a crash mid-format reformats from scratch *)
    let arena_size = main_start + main_size - arena_base in
    let arena = A.init mem ~base:arena_base ~size:arena_size in
    let t = make r mem arena ~mode ~main_size ~arena_base in
    Pmem.Region.store r o_state st_idl;
    let span = used_span t in
    Pmem.Region.copy r ~src:main_start ~dst:(main_start + main_size)
      ~len:span;
    (* only the used span of main and its back replica need flushing; the
       span covers every deferred store A.init issued *)
    Mem.discard_dirty mem;
    Pmem.Region.pwb_range r main_start span;
    Pmem.Region.pwb_range r (main_start + main_size) span;
    Pmem.Region.pwb r o_state;
    Pmem.Region.pfence r;
    Fault.hit fp_format_before_magic;
    Pmem.Region.store r o_magic magic_value;
    Pmem.Region.pwb r o_magic;
    Pmem.Region.pfence r;
    (t, [])
  end

let create ~mode r = fst (open_salvage ~mode r)

(* Re-run recovery on an engine (used by tests after a simulated crash;
   equivalent to re-opening the region). *)
let recover_with ~salvage t =
  let lost =
    recover_raw ~salvage t.r ~main_size:t.main_size
      ~arena_base:t.arena_base
  in
  t.in_tx <- false;
  t.mem.log <- None;
  Mem.discard_dirty t.mem;
  Redo_log.clear t.log;
  lost

let recover t = ignore (recover_with ~salvage:false t : (int * string) list)
let recover_salvage t = recover_with ~salvage:true t

(* On-demand scrub of a quiescent engine (the failpoint-instrumented
   entry the campaigns drive). *)
let scrub_with ~salvage t =
  if t.in_tx then invalid_arg "Engine.scrub: transaction in progress";
  scrub_raw ~salvage t.r ~main_size:t.main_size ~arena_base:t.arena_base

let scrub t = scrub_with ~salvage:false t
let scrub_salvage t = scrub_with ~salvage:true t

(* Byte ranges a media-fault campaign may target such that every fault is
   at least detectable by {!scrub}: the used spans of both twins. *)
let media_spans t =
  let span = used_span t in
  [ (t.main_start, span); (t.main_start + t.main_size, span) ]

(* ---- transaction protocol (Algorithm 1) ---- *)

let begin_tx t =
  (* a dead machine reports the crash, not API misuse: another thread may
     have died inside its transaction, leaving [in_tx] set *)
  if Pmem.Region.is_dead t.r then raise Pmem.Region.Crash_point;
  if t.in_tx then invalid_arg "Engine.begin_tx: transactions do not nest";
  if t.mode = Logged then begin
    Redo_log.clear t.log;
    t.mem.log <- Some t.log
  end;
  t.in_tx <- true;
  Pmem.Region.store t.r o_state st_mut;
  Pmem.Region.pwb t.r o_state;
  Pmem.Region.pfence t.r;
  Fault.hit fp_mut_published

(* Make every in-place modification of main durable and mark the
   transaction committed.  After this returns, the effects are ACID-durable
   (recovery will roll forward, not back). *)
let commit_main t =
  Fault.hit fp_before_flush;
  (* deferred write-backs: every line the transaction dirtied is flushed
     exactly once, before the fence that orders main against CPY *)
  Mem.flush_dirty t.mem;
  Pmem.Region.pfence t.r;
  Pmem.Region.store t.r o_state st_cpy;
  Pmem.Region.pwb t.r o_state;
  Pmem.Region.psync t.r;
  let s = Pmem.Region.stats t.r in
  s.Pmem.Stats.commits <- s.Pmem.Stats.commits + 1;
  t.mem.log <- None;
  Fault.hit fp_cpy_published

(* Propagate the transaction's modifications from main to back. *)
let replicate t =
  (match t.mode with
   | Full_copy ->
     let span = used_span t in
     Pmem.Region.copy t.r ~src:t.main_start
       ~dst:(t.main_start + t.main_size) ~len:span;
     Pmem.Region.pwb_range t.r (t.main_start + t.main_size) span
   | Logged ->
     (* one copy + one pwb_range per maximal interval, not per raw entry *)
     Redo_log.coalesce t.log;
     Redo_log.iter t.log t.to_back);
  Fault.hit fp_replicate_copied;
  Pmem.Region.pfence t.r

let finish_tx t =
  Pmem.Region.store t.r o_state st_idl;
  t.in_tx <- false;
  Redo_log.clear t.log

let end_tx t =
  if not t.in_tx then invalid_arg "Engine.end_tx: no transaction";
  commit_main t;
  replicate t;
  finish_tx t

(* Roll an in-flight update transaction back.  While state = MUT the
   abort is "free" (§4.5): back is the consistent copy, so this is
   exactly recovery's MUT branch run in-process — whole-span restore in
   Full_copy, per-logged-range restore in Logged — followed by the same
   fence discipline that republishes IDL durably.  The original
   exception is re-raised wrapped in {!Tx_aborted}; crashes propagate
   raw (a dead region has nothing to roll back — reopening it runs real
   recovery), and an exception that slipped in after the CPY durability
   point rolls *forward*, because the transaction already committed. *)
let abort_main t cause =
  let backtrace = Printexc.get_backtrace () in
  if Pmem.Region.is_dead t.r || not t.in_tx then raise cause
  else if Pmem.Region.load t.r o_state = st_cpy then begin
    replicate t;
    finish_tx t;
    raise cause
  end
  else begin
    Mem.discard_dirty t.mem;
    (match t.mode with
     | Full_copy ->
       let top =
         Pmem.Region.load t.r (t.arena_base + t.main_size + Palloc.top_offset)
       in
       let span = top - t.main_start in
       Pmem.Region.copy t.r ~src:(t.main_start + t.main_size)
         ~dst:t.main_start ~len:span;
       Pmem.Region.pwb_range t.r t.main_start span
     | Logged ->
       Redo_log.iter t.log t.to_main);
    Fault.hit fp_abort_restored;
    Pmem.Region.pfence t.r;
    Pmem.Region.store t.r o_state st_idl;
    Pmem.Region.pwb t.r o_state;
    Pmem.Region.pfence t.r;
    Fault.hit fp_abort_idl_published;
    t.mem.log <- None;
    t.in_tx <- false;
    Redo_log.clear t.log;
    let s = Pmem.Region.stats t.r in
    s.Pmem.Stats.tx_aborts <- s.Pmem.Stats.tx_aborts + 1;
    raise_abort cause backtrace
  end

(* ---- interposed accesses ---- *)

let check_main t off len what =
  if off < t.main_start || off + len > t.main_start + t.main_size then
    invalid_arg
      (Printf.sprintf "Engine.%s: offset %d outside main region" what off)

let load t off = Pmem.Region.load t.r off

(* Load through a synthetic pointer: [delta] is 0 for main readers and
   [main_size] for back readers (RomulusLR, §5.3). *)
let load_off t delta off = Pmem.Region.load t.r (off + delta)

let load_bytes_off t delta off len =
  Pmem.Region.load_bytes t.r (off + delta) len

let compare_bytes_off t delta off len s =
  Pmem.Region.compare_bytes t.r (off + delta) len s

let store t off v =
  if not t.in_tx then raise Store_outside_transaction;
  check_main t off 8 "store";
  Mem.store t.mem off v;
  let s = Pmem.Region.stats t.r in
  s.Pmem.Stats.user_bytes <- s.Pmem.Stats.user_bytes + 8

let load_bytes t off len = Pmem.Region.load_bytes t.r off len
let compare_bytes t off len s = Pmem.Region.compare_bytes t.r off len s

let store_bytes t off str =
  if not t.in_tx then raise Store_outside_transaction;
  let len = String.length str in
  check_main t off len "store_bytes";
  Mem.write t.mem off len;
  Pmem.Region.store_bytes t.r off str;
  let s = Pmem.Region.stats t.r in
  s.Pmem.Stats.user_bytes <- s.Pmem.Stats.user_bytes + len

let alloc t n =
  if not t.in_tx then raise Store_outside_transaction;
  A.alloc t.arena n

let free t p =
  if not t.in_tx then raise Store_outside_transaction;
  A.free t.arena p

(* ---- roots ---- *)

let root_addr t i =
  if i < 0 || i >= Ptm_intf.root_slots then raise (Root_out_of_bounds i);
  t.main_start + (8 * i)

let get_root t i = Pmem.Region.load t.r (root_addr t i)

let get_root_off t delta i = Pmem.Region.load t.r (root_addr t i + delta)

let set_root t i v =
  if not t.in_tx then raise Store_outside_transaction;
  Mem.store t.mem (root_addr t i) v

(* ---- introspection for tests ---- *)

let allocator_check t = A.check t.arena
let log_entries t = Redo_log.entries t.log
let in_tx t = t.in_tx
