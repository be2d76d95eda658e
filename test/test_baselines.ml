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
    tc "rwlock_rp: exclusion" `Quick test_rwlock_rp_basic ]

let () =
  Alcotest.run "baselines"
    [ ("undolog(PMDK)", Undolog_suite.suite);
      ("redolog(Mnemosyne)", Redolog_suite.suite);
      ("specific", baseline_specific) ]
