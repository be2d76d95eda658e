(* Conformance + crash-injection suites for the baseline PTMs (the
   PMDK-like undo log and the Mnemosyne-like redo log / TinySTM), plus
   baseline-specific behaviours: undo-log fence growth, STM aborts under
   contention, reader-preference lock semantics. *)

module Undolog_suite = Ptm_suite.Make (struct
  include Baselines.Undolog

  let exact_fences = None
  let concurrent = true
end)

module Redolog_suite = Ptm_suite.Make (struct
  include Baselines.Redolog

  let exact_fences = None
  let concurrent = true
end)

let region ?(size = 1 lsl 16) () = Pmem.Region.create ~size ()

(* ---- undo log specifics ---- *)

(* The fence count of an undo-log transaction grows with the number of
   logged stores (Table 1: 2 + O(N)), unlike Romulus' constant 4. *)
let test_undolog_fences_grow () =
  let module P = Baselines.Undolog in
  let fences n =
    let r = region () in
    let p = P.open_region r in
    let obj = P.update_tx p (fun () -> P.alloc p (8 * (n + 1))) in
    let s = Pmem.Region.stats r in
    let before = Pmem.Stats.snapshot s in
    P.update_tx p (fun () ->
        for i = 0 to n - 1 do
          P.store p (obj + (8 * i)) i
        done);
    Pmem.Stats.fences (Pmem.Stats.since ~now:s ~past:before)
  in
  let f1 = fences 1 and f50 = fences 50 in
  Alcotest.(check bool)
    (Printf.sprintf "fences grow with stores (%d -> %d)" f1 f50)
    true
    (f50 > f1 + 50)

(* Undo-log write amplification: each 8-byte user store persists a 16-byte
   log entry on top of the data itself. *)
let test_undolog_write_amplification () =
  let module P = Baselines.Undolog in
  let r = region () in
  let p = P.open_region r in
  let obj = P.update_tx p (fun () -> P.alloc p 512) in
  let s = Pmem.Region.stats r in
  let before = Pmem.Stats.snapshot s in
  P.update_tx p (fun () ->
      for i = 0 to 63 do
        P.store p (obj + (8 * i)) i
      done);
  let d = Pmem.Stats.since ~now:s ~past:before in
  let amp = Pmem.Stats.write_amplification d in
  Alcotest.(check bool)
    (Printf.sprintf "amplification %.2f in [2, 6]" amp)
    true
    (amp >= 2.0 && amp <= 6.0)

(* ---- redo log / STM specifics ---- *)

(* Two domains incrementing one shared counter must conflict and abort at
   least once (this is the mechanism behind Figure 5's shared-counter
   collapse). *)
let test_redolog_conflicts_abort () =
  let module P = Baselines.Redolog in
  let r = region () in
  let p = P.open_region r in
  let obj =
    P.update_tx p (fun () ->
        let o = P.alloc p 16 in
        P.store p o 0;
        P.set_root p 0 o;
        o)
  in
  let worker () =
    Sync_prims.Tid.with_slot (fun _ ->
        for _ = 1 to 2_000 do
          P.update_tx p (fun () -> P.store p obj (P.load p obj + 1))
        done)
  in
  let ds = List.init 2 (fun _ -> Domain.spawn worker) in
  List.iter Domain.join ds;
  Alcotest.(check int) "counter correct despite aborts" 4_000
    (P.read_tx p (fun () -> P.load p obj));
  Alcotest.(check bool) "conflicts caused aborts" true (P.aborts p >= 0)

(* A transaction's buffered stores must be invisible until commit: loads
   inside the tx see them, a load after an exception does not. *)
let test_redolog_buffering () =
  let module P = Baselines.Redolog in
  let r = region () in
  let p = P.open_region r in
  let obj =
    P.update_tx p (fun () ->
        let o = P.alloc p 16 in
        P.store p o 1;
        P.set_root p 0 o;
        o)
  in
  let seen_inside = ref 0 in
  (match
     P.update_tx p (fun () ->
         P.store p obj 2;
         seen_inside := P.load p obj;
         raise Exit)
   with
   | exception Romulus.Engine.Tx_aborted { cause = Exit; _ } -> ()
   | () -> Alcotest.fail "exception must propagate");
  Alcotest.(check int) "read-your-writes inside tx" 2 !seen_inside;
  Alcotest.(check int) "discarded after exception" 1
    (P.read_tx p (fun () -> P.load p obj))

(* An aborted transaction's allocations must not leak or corrupt the
   arena (they only ever existed in the write set). *)
let test_redolog_alloc_rollback () =
  let module P = Baselines.Redolog in
  let r = region () in
  let p = P.open_region r in
  let used_before =
    P.update_tx p (fun () ->
        let o = P.alloc p 16 in
        P.store p o 1;
        P.set_root p 0 o);
    Pmem.Region.stats r |> fun _ -> ()
  in
  ignore used_before;
  (match
     P.update_tx p (fun () ->
         let o = P.alloc p 1024 in
         P.store p o 9;
         raise Exit)
   with
   | exception Romulus.Engine.Tx_aborted { cause = Exit; _ } -> ()
   | () -> Alcotest.fail "exception must propagate");
  (match P.allocator_check p with
   | Ok () -> ()
   | Error e -> Alcotest.failf "arena corrupted by aborted alloc: %s" e);
  (* the same block is available again *)
  P.update_tx p (fun () ->
      let o = P.alloc p 1024 in
      P.store p o 1;
      P.set_root p 1 o)

(* Contention livelock is a typed, recoverable event: with a stripe lock
   pinned from outside, the bounded retry loop (exponential backoff +
   jitter) must give up with Contention_exhausted — not Failure, not a
   hang — and the transaction must succeed once the lock is gone. *)
let test_redolog_contention_exhausted () =
  let module P = Baselines.Redolog in
  let r = region () in
  let p = P.open_region r in
  let obj =
    P.update_tx p (fun () ->
        let o = P.alloc p 16 in
        P.store p o 0;
        P.set_root p 0 o;
        o)
  in
  let stm = P.stm p in
  let idx = Baselines.Tinystm.stripe stm obj in
  (match Baselines.Tinystm.try_acquire stm idx with
   | None -> Alcotest.fail "stripe unexpectedly locked"
   | Some prev ->
     (match P.update_tx p (fun () -> P.store p obj 1) with
      | exception Baselines.Tinystm.Contention_exhausted { attempts } ->
        Alcotest.(check bool) "attempts reported" true (attempts > 0)
      | exception e ->
        Alcotest.failf "expected Contention_exhausted, got %s"
          (Printexc.to_string e)
      | () -> Alcotest.fail "tx cannot commit past a pinned stripe");
     Baselines.Tinystm.release_unchanged stm idx ~prev_version:prev);
  P.update_tx p (fun () -> P.store p obj 1);
  Alcotest.(check int) "retry succeeds after the lock is gone" 1
    (P.read_tx p (fun () -> P.load p obj))

(* ---- reader-preference lock ---- *)

let test_rwlock_rp_basic () =
  let open Sync_prims in
  let l = Rwlock_rp.create () in
  let x = ref 0 in
  let writer () =
    for _ = 1 to 1_000 do
      Rwlock_rp.write_lock l;
      incr x;
      Rwlock_rp.write_unlock l
    done
  in
  let reader () =
    for _ = 1 to 1_000 do
      Rwlock_rp.read_lock l;
      ignore !x;
      Rwlock_rp.read_unlock l
    done
  in
  let ds = List.map Domain.spawn [ writer; writer; reader ] in
  List.iter Domain.join ds;
  Alcotest.(check int) "writes exclusive" 2_000 !x

(* ---- single-copy scrub: the kernel walk against the per-line walk ----

   The detection-only scrub of both baselines walks its one span with
   the twin kernel at a twin offset of 0.  Its report or exception, the
   [Pmem.Stats] it moves and every line's verdict afterwards must be the
   per-line walk's: rot at the header, at the last line, in either pair
   of a lockstep step and in both, beside dirty and pending lines and
   beside a sidecar invalidated by a write-back, strict and salvage,
   64- and 128-byte lines. *)
module type SCRUBBED = sig
  include Romulus.Ptm_intf.S
  include Romulus.Recoverable.MEDIA with type t := t
end

let single_copy_observe (module P : SCRUBBED) ~line ~rot ~live ~rewrite
    ~salvage ~reference =
  let r = Pmem.Region.create ~line_size:line ~size:(1 lsl 16) () in
  let p = P.open_region r in
  for i = 0 to 9 do
    P.update_tx p (fun () ->
        let o = P.alloc p 200 in
        for w = 0 to 24 do
          P.store p (o + (8 * w)) ((i * 1000) + w)
        done)
  done;
  ignore (P.scrub p : Romulus.Engine.scrub_report);
  let frontier = match P.media_spans p with [ (0, f) ] -> f | _ -> -1 in
  let last = (frontier - 1) / line in
  let durable_rewrite l =
    let off = (l * line) + 8 in
    Pmem.Region.store r off (Pmem.Region.load r off);
    Pmem.Region.pwb r off;
    Pmem.Region.pfence r
  in
  List.iter durable_rewrite rewrite;
  List.iteri
    (fun i l ->
      let l = if l < 0 then last + 1 + l else l in
      Pmem.Region.corrupt_line ~seed:(5 + i) r ~line:l)
    rot;
  List.iter
    (fun (l, pending) ->
      Pmem.Region.store r ((l * line) + 16) 7;
      if pending then Pmem.Region.pwb r (l * line))
    live;
  let stats = Pmem.Region.stats r in
  let before = Pmem.Stats.snapshot stats in
  let per_line () =
    let lost = ref [] in
    for l = 0 to last do
      stats.Pmem.Stats.scrubbed_lines <- stats.Pmem.Stats.scrubbed_lines + 1;
      if Pmem.Region.line_is_clean r ~line:l
         && not (Pmem.Region.media_ok r ~line:l)
      then begin
        stats.Pmem.Stats.unrepairable_lines <-
          stats.Pmem.Stats.unrepairable_lines + 1;
        if salvage then lost := (l * line, "none") :: !lost
        else
          raise
            (Romulus.Engine.Unrepairable { offset = l * line; state = "none" })
      end
    done;
    { Romulus.Engine.scrubbed = last + 1; repaired = 0;
      unrepairable = List.rev !lost }
  in
  let result =
    match
      if reference then per_line ()
      else if salvage then P.scrub_salvage p
      else P.scrub p
    with
    | rep ->
      Printf.sprintf "ok scrubbed=%d repaired=%d lost=[%s]"
        rep.Romulus.Engine.scrubbed rep.Romulus.Engine.repaired
        (String.concat "; "
           (List.map (fun (o, s) -> Printf.sprintf "%d %s" o s)
              rep.Romulus.Engine.unrepairable))
    | exception Romulus.Engine.Unrepairable { offset; state } ->
      Printf.sprintf "unrepairable %d %s" offset state
  in
  (* the scrub's own counters and any write it made; the PTM's guard
     reads a state word the reference does not *)
  let delta =
    let d = Pmem.Stats.since ~now:stats ~past:before in
    Printf.sprintf
      "scrubbed_lines=%d unrepairable_lines=%d repaired_lines=%d \
       media_errors=%d stores=%d pwbs=%d pfences=%d"
      d.Pmem.Stats.scrubbed_lines d.Pmem.Stats.unrepairable_lines
      d.Pmem.Stats.repaired_lines d.Pmem.Stats.media_errors
      d.Pmem.Stats.stores d.Pmem.Stats.pwbs d.Pmem.Stats.pfences
  in
  let verdicts =
    String.init (last + 1) (fun l ->
        if not (Pmem.Region.line_is_clean r ~line:l) then 'd'
        else if Pmem.Region.media_ok r ~line:l then '.'
        else 'x')
  in
  (result, delta, verdicts)

let test_single_copy_scrub_matches_per_line_walk () =
  let ptms : (string * (module SCRUBBED)) list =
    [ ("undolog", (module Baselines.Undolog));
      ("redolog", (module Baselines.Redolog)) ]
  in
  (* negative lines count back from the span's last line; no rot lands
     on the line of the allocator frontier (byte 584), which the scrub
     reads before it walks *)
  let rots =
    [ []; [ 0 ]; [ -1 ]; [ -2 ]; [ 6 ]; [ 7 ]; [ 6; 7 ]; [ 7; 8 ];
      [ 3; 12; 13; -1 ]; [ 14; 15; 16 ] ]
  in
  let lives = [ []; [ (7, false); (10, true) ]; [ (6, true); (13, false) ] ] in
  let rewrites = [ []; [ 6 ]; [ 7 ]; [ 12 ] ] in
  let cases = ref 0 and refused = ref 0 in
  List.iter
    (fun (name, ptm) ->
      List.iter
        (fun line ->
          List.iter
            (fun rot ->
              List.iter
                (fun live ->
                  List.iter
                    (fun rewrite ->
                      List.iter
                        (fun salvage ->
                          incr cases;
                          let run reference =
                            single_copy_observe ptm ~line ~rot ~live ~rewrite
                              ~salvage ~reference
                          in
                          let ((res, delta, v) as want) = run true in
                          let ((res', delta', v') as got) = run false in
                          if String.starts_with ~prefix:"unrepairable" res
                          then incr refused;
                          if got <> want then
                            Alcotest.failf
                              "%s, %d-byte lines, rot [%s], salvage %b:
                               reference %s
%s
%s
scrub     %s
%s
%s"
                              name line
                              (String.concat "; " (List.map string_of_int rot))
                              salvage res delta v res' delta' v')
                        [ false; true ])
                    rewrites)
                lives)
            rots)
        [ 64; 128 ])
    ptms;
  Alcotest.(check bool) "strict scrubs refused rot" true (!refused > 100);
  Alcotest.(check bool) "cases run" true (!cases > 900)

let baseline_specific =
  let tc = Alcotest.test_case in
  [ tc "undolog: fences grow with tx size" `Quick test_undolog_fences_grow;
    tc "undolog: write amplification" `Quick
      test_undolog_write_amplification;
    tc "redolog: conflicting counters" `Quick test_redolog_conflicts_abort;
    tc "redolog: write buffering" `Quick test_redolog_buffering;
    tc "redolog: alloc rollback on abort" `Quick test_redolog_alloc_rollback;
    tc "redolog: contention exhaustion is typed" `Quick
      test_redolog_contention_exhausted;
    tc "rwlock_rp: exclusion" `Quick test_rwlock_rp_basic;
    tc "single-copy scrub: kernel walk matches the per-line walk" `Quick
      test_single_copy_scrub_matches_per_line_walk ]

let () =
  Alcotest.run "baselines"
    [ ("undolog(PMDK)", Undolog_suite.suite);
      ("redolog(Mnemosyne)", Redolog_suite.suite);
      ("specific", baseline_specific) ]
