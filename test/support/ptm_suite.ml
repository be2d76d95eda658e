(* A reusable conformance suite for every PTM in the repository: semantic
   unit tests, durable-linearizability checks under real domains, and
   systematic crash injection at every instruction boundary under
   adversarial cache-line policies. *)

module R = Pmem.Region

module type VARIANT = sig
  include Romulus.Ptm_intf.S

  (** Re-run crash recovery after a simulated power failure. *)
  val recover : t -> unit

  (** Structural check of the persistent allocator. *)
  val allocator_check : t -> (unit, string) result

  (** Audit the used persistent spans against the media-fault sidecar,
      repairing from the twin where one exists. *)
  val scrub : t -> Romulus.Engine.scrub_report

  (** Persistent spans the scrubber audits: two for twin-copy designs,
      one for single-image baselines. *)
  val media_spans : t -> (int * int) list

  (** Exact persistence fences per update transaction, when the algorithm
      guarantees a constant (Romulus: 4). *)
  val exact_fences : int option

  (** Whether the PTM supports concurrent use (the single-threaded API of
      §5.1 does not; its domain tests are skipped). *)
  val concurrent : bool
end

let region ?(size = 1 lsl 16) () = R.create ~size ()

module Make (P : VARIANT) = struct
  let open_fresh ?size () =
    let r = region ?size () in
    (r, P.open_region r)

  (* ---- basic semantics ---- *)

  let test_root_round_trip () =
    let _, p = open_fresh () in
    P.update_tx p (fun () ->
        let obj = P.alloc p 16 in
        P.store p obj 11;
        P.store p (obj + 8) 22;
        P.set_root p 0 obj);
    let a, b =
      P.read_tx p (fun () ->
          let obj = P.get_root p 0 in
          (P.load p obj, P.load p (obj + 8)))
    in
    Alcotest.(check (pair int int)) "values back" (11, 22) (a, b)

  let test_blob_round_trip () =
    let _, p = open_fresh () in
    let payload = String.init 100 (fun i -> Char.chr (65 + (i mod 26))) in
    P.update_tx p (fun () ->
        let obj = P.alloc p 128 in
        P.store_bytes p obj payload;
        P.set_root p 1 obj);
    let got = P.read_tx p (fun () -> P.load_bytes p (P.get_root p 1) 100) in
    Alcotest.(check string) "blob back" payload got

  let test_tx_result_value () =
    let _, p = open_fresh () in
    Alcotest.(check int) "update_tx returns value" 42
      (P.update_tx p (fun () -> 42));
    Alcotest.(check string) "read_tx returns value" "ok"
      (P.read_tx p (fun () -> "ok"))

  let test_store_outside_tx_raises () =
    let _, p = open_fresh () in
    let obj = P.update_tx p (fun () -> P.alloc p 16) in
    match P.store p obj 1 with
    | exception Romulus.Engine.Store_outside_transaction -> ()
    | () -> Alcotest.fail "store outside tx must raise"

  let test_store_in_read_tx_raises () =
    let _, p = open_fresh () in
    let obj = P.update_tx p (fun () -> P.alloc p 16) in
    match P.read_tx p (fun () -> P.store p obj 5) with
    | exception Romulus.Engine.Store_outside_transaction -> ()
    | () -> Alcotest.fail "store in read_tx must raise"

  let test_nested_txs_flatten () =
    let _, p = open_fresh () in
    let v =
      P.update_tx p (fun () ->
          let obj = P.alloc p 16 in
          P.store p obj 7;
          P.set_root p 0 obj;
          P.update_tx p (fun () -> P.store p (obj + 8) 8);
          P.read_tx p (fun () -> P.load p obj + P.load p (obj + 8)))
    in
    Alcotest.(check int) "nested flattening" 15 v;
    let v2 =
      P.read_tx p (fun () -> P.read_tx p (fun () -> P.load p (P.get_root p 0)))
    in
    Alcotest.(check int) "nested read" 7 v2

  (* Every PTM in the repository aborts a transaction whose closure
     raises: partial effects are discarded and the exception re-raised
     wrapped in Engine.Tx_aborted (carrying the original cause). *)
  let test_exception_semantics () =
    let _, p = open_fresh () in
    let obj =
      P.update_tx p (fun () ->
          let o = P.alloc p 16 in
          P.store p o 1;
          P.set_root p 0 o;
          o)
    in
    (match P.update_tx p (fun () -> P.store p obj 77; raise Exit) with
     | exception Romulus.Engine.Tx_aborted { cause = Exit; _ } -> ()
     | exception e ->
       Alcotest.failf "expected Tx_aborted{Exit}, got %s"
         (Printexc.to_string e)
     | () -> Alcotest.fail "exception must propagate");
    Alcotest.(check int) "rolled back on exception" 1
      (P.read_tx p (fun () -> P.load p obj));
    (* the PTM must remain usable *)
    P.update_tx p (fun () -> P.store p obj 5);
    Alcotest.(check int) "usable after exception" 5
      (P.read_tx p (fun () -> P.load p obj))

  (* A raising read-only transaction must depart its read indicator /
     Left-Right ingress on the way out: if the arrival leaked, the next
     update transaction would wait forever for the phantom reader.  The
     raw exception propagates unwrapped (nothing to abort). *)
  let test_read_tx_raise_departs () =
    let _, p = open_fresh () in
    let obj =
      P.update_tx p (fun () ->
          let o = P.alloc p 16 in
          P.store p o 1;
          P.set_root p 0 o;
          o)
    in
    (match P.read_tx p (fun () -> ignore (P.load p obj); raise Exit) with
     | exception Exit -> ()
     | exception e ->
       Alcotest.failf "read_tx must re-raise raw, got %s"
         (Printexc.to_string e)
     | _ -> Alcotest.fail "exception must propagate");
    (* a store inside a read-only transaction is a typed error and must
       depart the ingress just the same *)
    (match P.read_tx p (fun () -> P.store p obj 9) with
     | exception Romulus.Engine.Store_outside_transaction -> ()
     | () -> Alcotest.fail "store in read_tx must raise");
    (* would-deadlock regression: writers drain the read indicator, so a
       leaked arrival would hang this update transaction *)
    P.update_tx p (fun () -> P.store p obj 2);
    Alcotest.(check int) "update after raising read_tx" 2
      (P.read_tx p (fun () -> P.load p obj))

  (* An invalid free (double free, interior pointer) inside a transaction
     is detected before any metadata is touched, surfaces as a typed
     Tx_aborted{Invalid_free}, and the whole transaction — including a
     prior valid free — rolls back. *)
  let test_invalid_free_typed () =
    let _, p = open_fresh () in
    let obj =
      P.update_tx p (fun () ->
          let o = P.alloc p 32 in
          P.store p o 5;
          P.set_root p 0 o;
          o)
    in
    (match P.update_tx p (fun () -> P.free p obj; P.free p obj) with
     | exception
         Romulus.Engine.Tx_aborted { cause = Palloc.Invalid_free _; _ } -> ()
     | exception e ->
       Alcotest.failf "expected Tx_aborted{Invalid_free}, got %s"
         (Printexc.to_string e)
     | () -> Alcotest.fail "double free must raise");
    (match P.allocator_check p with
     | Ok () -> ()
     | Error e -> Alcotest.failf "arena damaged by rejected free: %s" e);
    (* the first (valid) free aborted with the transaction: still live *)
    Alcotest.(check int) "block survived the aborted double free" 5
      (P.read_tx p (fun () -> P.load p obj));
    (match
       P.update_tx p (fun () -> P.free p (P.get_root p 0 + 4))
     with
     | exception
         Romulus.Engine.Tx_aborted { cause = Palloc.Invalid_free _; _ } -> ()
     | () -> Alcotest.fail "interior-pointer free must raise");
    (* freeing it once, for real, still works *)
    P.update_tx p (fun () -> P.free p obj; P.set_root p 0 0);
    match P.allocator_check p with
    | Ok () -> ()
    | Error e -> Alcotest.failf "arena damaged by final free: %s" e

  (* ---- resource exhaustion: typed errors only ---- *)

  let test_out_of_memory_typed () =
    let r, p = open_fresh () in
    let obj =
      P.update_tx p (fun () ->
          let o = P.alloc p 16 in
          P.store p o 3;
          P.set_root p 0 o;
          o)
    in
    (match P.update_tx p (fun () -> ignore (P.alloc p (1 lsl 22))) with
     | exception
         Romulus.Engine.Tx_aborted { cause = Palloc.Out_of_memory _; _ } -> ()
     | exception e ->
       Alcotest.failf "expected Tx_aborted{Out_of_memory}, got %s"
         (Printexc.to_string e)
     | () -> Alcotest.fail "oversized alloc must raise");
    (match P.allocator_check p with
     | Ok () -> ()
     | Error e -> Alcotest.failf "arena damaged by failed alloc: %s" e);
    (* exhaustion is recoverable: the next transaction commits *)
    P.update_tx p (fun () -> P.store p obj 4);
    Alcotest.(check int) "usable after exhaustion" 4
      (P.read_tx p (fun () -> P.load p obj));
    (* and the clean abort left nothing for recovery to redo *)
    let s = R.persistent_snapshot r in
    P.recover p;
    Alcotest.(check bool) "recovery after exhaustion is a no-op" true
      (String.equal s (R.persistent_snapshot r))

  let test_root_out_of_bounds_typed () =
    let _, p = open_fresh () in
    (match P.update_tx p (fun () -> P.set_root p 1_000_000 1) with
     | exception
         Romulus.Engine.Tx_aborted
           { cause = Romulus.Engine.Root_out_of_bounds _; _ } -> ()
     | exception e ->
       Alcotest.failf "expected Tx_aborted{Root_out_of_bounds}, got %s"
         (Printexc.to_string e)
     | () -> Alcotest.fail "out-of-bounds root must raise");
    (* outside a transaction the typed error surfaces raw *)
    (match P.read_tx p (fun () -> P.get_root p (-1)) with
     | exception Romulus.Engine.Root_out_of_bounds _ -> ()
     | _ -> Alcotest.fail "negative root index must raise");
    (* still usable *)
    P.update_tx p (fun () -> P.set_root p 0 7);
    Alcotest.(check int) "usable after bad root index" 7
      (P.read_tx p (fun () -> P.get_root p 0))

  (* ---- durability across restart ---- *)

  let test_survives_clean_crash () =
    let r, p = open_fresh () in
    P.update_tx p (fun () ->
        let obj = P.alloc p 16 in
        P.store p obj 123;
        P.set_root p 0 obj);
    R.crash r R.Drop_all;
    P.recover p;
    Alcotest.(check int) "value survives restart" 123
      (P.read_tx p (fun () -> P.load p (P.get_root p 0)))

  let test_reopen_region () =
    let r, p = open_fresh () in
    P.update_tx p (fun () ->
        let obj = P.alloc p 16 in
        P.store p obj 5;
        P.set_root p 0 obj);
    R.crash r R.Drop_all;
    let p2 = P.open_region r in
    Alcotest.(check int) "reopen preserves data" 5
      (P.read_tx p2 (fun () -> P.load p2 (P.get_root p2 0)))

  (* Sweep the trap over every instruction boundary of a 2-store
     transaction (schedule-independent: the sweep adapts to however many
     primitives the PTM's commit path issues).  Under Drop_all, recovery
     must surface either exactly the pre-state or exactly the post-state,
     and the early crash points must actually roll back. *)
  let test_uncommitted_tx_rolls_back () =
    let rollbacks = ref 0 in
    let completed = ref false in
    let k = ref 0 in
    while not !completed do
      let r, p = open_fresh () in
      let obj =
        P.update_tx p (fun () ->
            let obj = P.alloc p 16 in
            P.store p obj 1;
            P.set_root p 0 obj;
            obj)
      in
      R.set_trap r !k;
      (match
         P.update_tx p (fun () ->
             P.store p obj 999;
             P.store p (obj + 8) 888)
       with
       | exception R.Crash_point -> ()
       | () ->
         R.clear_trap r;
         completed := true);
      (* Drop_all: nothing un-fenced persists, so recovery must reach a
         state in which the first transaction's effect is intact or the
         second committed whole *)
      R.crash r R.Drop_all;
      P.recover p;
      let a, b =
        P.read_tx p (fun () ->
            let o = P.get_root p 0 in
            (P.load p o, P.load p (o + 8)))
      in
      (match (a, b) with
       | 1, _ -> incr rollbacks
       | 999, 888 -> ()
       | _ -> Alcotest.failf "torn state at crash point %d: a=%d b=%d" !k a b);
      incr k;
      if !k > 20_000 then Alcotest.fail "rollback sweep did not terminate"
    done;
    Alcotest.(check bool) "some crash points rolled back" true (!rollbacks > 0)

  (* ---- fence accounting ---- *)

  let fences_of_tx nstores =
    let r, p = open_fresh () in
    let obj = P.update_tx p (fun () -> P.alloc p (8 * (nstores + 1))) in
    let s = R.stats r in
    let before = Pmem.Stats.snapshot s in
    P.update_tx p (fun () ->
        for i = 0 to nstores - 1 do
          P.store p (obj + (8 * i)) i
        done);
    Pmem.Stats.fences (Pmem.Stats.since ~now:s ~past:before)

  let test_fence_bound () =
    match P.exact_fences with
    | Some n ->
      Alcotest.(check int) "fences, 1 store" n (fences_of_tx 1);
      Alcotest.(check int) "fences, 100 stores" n (fences_of_tx 100);
      Alcotest.(check int) "fences, 400 stores" n (fences_of_tx 400)
    | None ->
      (* log-based PTMs: fences may grow with the transaction *)
      Alcotest.(check bool) "fences positive" true (fences_of_tx 10 > 0)

  let test_read_tx_no_fences () =
    let r, p = open_fresh () in
    let obj =
      P.update_tx p (fun () ->
          let o = P.alloc p 16 in
          P.store p o 1;
          P.set_root p 0 o;
          o)
    in
    let s = R.stats r in
    let before = Pmem.Stats.snapshot s in
    ignore (P.read_tx p (fun () -> P.load p obj));
    let d = Pmem.Stats.since ~now:s ~past:before in
    Alcotest.(check int) "no fences in read tx" 0 (Pmem.Stats.fences d);
    Alcotest.(check int) "no pwbs in read tx" 0 d.Pmem.Stats.pwbs

  (* ---- systematic crash injection ---- *)

  type observed = Pre | Post | Torn of string

  let setup_crash_region () =
    let r = region () in
    let p = P.open_region r in
    let n1, n2 =
      P.update_tx p (fun () ->
          let n1 = P.alloc p 16 in
          P.store p n1 1;
          P.store p (n1 + 8) 2;
          P.set_root p 0 n1;
          let n2 = P.alloc p 16 in
          P.store p n2 7;
          P.set_root p 2 n2;
          (n1, n2))
    in
    (r, p, n1, n2)

  let mutate p n1 n2 =
    P.update_tx p (fun () ->
        P.store p n1 10;
        P.store p (n1 + 8) 20;
        let n3 = P.alloc p 24 in
        P.store p n3 99;
        P.set_root p 1 n3;
        P.free p n2;
        P.set_root p 2 0)

  let observe p n1 n2 =
    P.read_tx p (fun () ->
        let a = P.load p n1 in
        let b = P.load p (n1 + 8) in
        let r1 = P.get_root p 1 in
        let r2 = P.get_root p 2 in
        match (a, b, r1, r2) with
        | 1, 2, 0, r2 when r2 = n2 && P.load p n2 = 7 -> Pre
        | 10, 20, n3, 0 when n3 <> 0 && P.load p n3 = 99 -> Post
        | _ ->
          Torn (Printf.sprintf "a=%d b=%d root1=%d root2=%d" a b r1 r2))

  let policy_name = function
    | R.Drop_all -> "drop_all"
    | R.Keep_all -> "keep_all"
    | R.Random_subset seed -> Printf.sprintf "random(%d)" seed
    | R.Torn_words seed -> Printf.sprintf "torn(%d)" seed

  let crash_at_every_point policy =
    let completed = ref false in
    let k = ref 0 in
    while not !completed do
      let r, p, n1, n2 = setup_crash_region () in
      R.set_trap r !k;
      (match mutate p n1 n2 with
       | () ->
         R.clear_trap r;
         completed := true
       | exception R.Crash_point -> ());
      R.crash r policy;
      P.recover p;
      (match observe p n1 n2 with
       | Pre | Post -> ()
       | Torn s ->
         Alcotest.failf "torn state at crash point %d (%s): %s" !k
           (policy_name policy) s);
      if !completed then begin
        match observe p n1 n2 with
        | Post -> ()
        | Pre | Torn _ -> Alcotest.fail "committed tx lost after crash"
      end;
      (match P.allocator_check p with
       | Ok () -> ()
       | Error e -> Alcotest.failf "allocator broken at point %d: %s" !k e);
      P.update_tx p (fun () ->
          let x = P.alloc p 16 in
          P.store p x 5;
          P.set_root p 3 x);
      Alcotest.(check int) "post-recovery tx works" 5
        (P.read_tx p (fun () -> P.load p (P.get_root p 3)));
      incr k;
      if !k > 20_000 then Alcotest.fail "crash loop did not terminate"
    done;
    !k

  let test_crash_injection_drop_all () =
    let points = crash_at_every_point R.Drop_all in
    Alcotest.(check bool) "covered many crash points" true (points > 10)

  let test_crash_injection_keep_all () =
    ignore (crash_at_every_point R.Keep_all)

  let test_crash_injection_random () =
    for seed = 1 to 4 do
      ignore (crash_at_every_point (R.Random_subset seed))
    done

  (* The torn-word adversary: individual 8-byte words of unfenced lines
     persist independently, the strongest crash model real ADR hardware
     admits.  The Pre/Post dichotomy must still hold at every boundary. *)
  let test_crash_injection_torn_words () =
    for seed = 1 to 4 do
      ignore (crash_at_every_point (R.Torn_words (seed * 131)))
    done

  let test_crash_during_recovery () =
    let r, p, n1, n2 = setup_crash_region () in
    R.set_trap r 12;
    (match mutate p n1 n2 with
     | exception R.Crash_point -> ()
     | () -> Alcotest.fail "trap did not fire");
    R.crash r (R.Random_subset 9);
    let k = ref 0 in
    let finished = ref false in
    while not !finished do
      R.set_trap r !k;
      (match P.recover p with
       | () ->
         R.clear_trap r;
         finished := true
       | exception R.Crash_point -> R.crash r (R.Random_subset (!k + 100)));
      incr k;
      if !k > 20_000 then Alcotest.fail "recovery loop did not terminate"
    done;
    match observe p n1 n2 with
    | Pre -> ()
    | Post -> Alcotest.fail "uncommitted tx became visible"
    | Torn s -> Alcotest.failf "torn after interrupted recoveries: %s" s

  (* Recovery is idempotent: after a crash anywhere in a transaction,
     running recovery once, twice, or once more after a no-op reopen must
     leave the very same persistent bytes — a second recovery pass (or a
     recovery interrupted and restarted by the crashtest campaigns) can
     never un-recover.  Swept over crash points and policies. *)
  let test_recover_idempotent () =
    let policies =
      [ R.Drop_all; R.Keep_all; R.Random_subset 5; R.Torn_words 17 ]
    in
    List.iter
      (fun policy ->
        let k = ref 0 in
        let completed = ref false in
        while not !completed do
          let r, p, n1, n2 = setup_crash_region () in
          R.set_trap r !k;
          (match mutate p n1 n2 with
           | () ->
             R.clear_trap r;
             completed := true
           | exception R.Crash_point -> ());
          R.crash r policy;
          P.recover p;
          let once = R.persistent_snapshot r in
          P.recover p;
          let twice = R.persistent_snapshot r in
          if not (String.equal once twice) then
            Alcotest.failf "recover not idempotent at point %d (%s)" !k
              (policy_name policy);
          (* a no-op reopen runs the recovery path once more *)
          let p2 = P.open_region r in
          ignore (P.read_tx p2 (fun () -> P.get_root p2 0));
          let reopened = R.persistent_snapshot r in
          if not (String.equal once reopened) then
            Alcotest.failf "reopen changed the image at point %d (%s)" !k
              (policy_name policy);
          k := !k + 7;
          if !k > 20_000 then
            Alcotest.fail "idempotence sweep did not terminate"
        done)
      policies

  (* Blob atomicity: a transaction rewrites a 96-byte blob and bumps a
     version word; crashed at every instruction boundary, recovery must
     never expose a version/blob mismatch or a torn blob. *)
  let test_blob_crash_atomicity () =
    let blob_for v = String.make 96 (Char.chr (65 + (v mod 26))) in
    let k = ref 0 in
    let completed = ref false in
    while not !completed do
      let r = region () in
      let p = P.open_region r in
      let obj =
        P.update_tx p (fun () ->
            let o = P.alloc p 112 in
            P.store p o 0;
            P.store_bytes p (o + 8) (blob_for 0);
            P.set_root p 0 o;
            o)
      in
      R.set_trap r !k;
      (match
         P.update_tx p (fun () ->
             P.store_bytes p (obj + 8) (blob_for 1);
             P.store p obj 1)
       with
       | () ->
         R.clear_trap r;
         completed := true
       | exception R.Crash_point -> ());
      R.crash r (R.Random_subset (!k + 77));
      P.recover p;
      let v, blob =
        P.read_tx p (fun () -> (P.load p obj, P.load_bytes p (obj + 8) 96))
      in
      if blob <> blob_for v then
        Alcotest.failf "torn blob at crash point %d: version %d" !k v;
      incr k;
      if !k > 20_000 then Alcotest.fail "blob crash loop did not terminate"
    done

  (* Allocator churn under crashes: interleave allocations and frees with
     random crash points; after every recovery the arena must pass its
     structural check and all committed live blocks must be intact. *)
  let test_allocator_churn_with_crashes () =
    let r = region () in
    let p = P.open_region r in
    let rng = Random.State.make [| 99 |] in
    (* live.(i) = Some (offset, fingerprint) — mirrors root slot 10+i *)
    let slots = 8 in
    let live = Array.make slots 0 in
    for i = 0 to slots - 1 do
      live.(i) <-
        P.update_tx p (fun () ->
            let o = P.alloc p 32 in
            P.store p o (i * 1_000);
            P.set_root p (10 + i) o;
            o)
    done;
    for round = 1 to 60 do
      let i = Random.State.int rng slots in
      R.set_trap r (Random.State.int rng 120);
      (match
         P.update_tx p (fun () ->
             (* replace the block in slot i *)
             P.free p (P.get_root p (10 + i));
             let o = P.alloc p (16 + (16 * Random.State.int rng 8)) in
             P.store p o (i * 1_000);
             P.set_root p (10 + i) o;
             o)
       with
       | o ->
         R.clear_trap r;
         live.(i) <- o
       | exception R.Crash_point ->
         R.crash r (R.Random_subset round);
         P.recover p;
         (* the replacement either committed or not: trust the root *)
         live.(i) <- P.read_tx p (fun () -> P.get_root p (10 + i)));
      (match P.allocator_check p with
       | Ok () -> ()
       | Error e -> Alcotest.failf "round %d: arena broken: %s" round e);
      for j = 0 to slots - 1 do
        let v = P.read_tx p (fun () -> P.load p live.(j)) in
        if v <> j * 1_000 then
          Alcotest.failf "round %d: slot %d clobbered (%d)" round j v
      done
    done

  (* A crash *inside the abort path itself*: the instruction-counting trap
     is swept over an aborting transaction, so it fires during the user
     code, during the rollback (restore-from-back / undo application), or
     not at all.  Whatever the line-fate policy, recovery must converge to
     the pre-state — an aborted transaction can never become visible, even
     half-aborted. *)
  let test_crash_inside_abort_path () =
    List.iter
      (fun policy ->
        let k = ref 0 in
        let completed = ref false in
        while not !completed do
          let r, p, n1, n2 = setup_crash_region () in
          R.set_trap r !k;
          (match
             P.update_tx p (fun () ->
                 P.store p n1 10;
                 P.store p (n1 + 8) 20;
                 let n3 = P.alloc p 24 in
                 P.store p n3 99;
                 P.set_root p 1 n3;
                 P.free p n2;
                 P.set_root p 2 0;
                 raise Exit)
           with
           | exception Romulus.Engine.Tx_aborted { cause = Exit; _ } ->
             R.clear_trap r;
             completed := true
           | exception R.Crash_point -> ()
           | exception e ->
             Alcotest.failf "point %d (%s): unexpected %s" !k
               (policy_name policy) (Printexc.to_string e)
           | () -> Alcotest.fail "raising tx must not commit");
          if not !completed then begin
            R.crash r policy;
            P.recover p
          end;
          (match observe p n1 n2 with
           | Pre -> ()
           | Post ->
             Alcotest.failf "aborted tx visible at point %d (%s)" !k
               (policy_name policy)
           | Torn s ->
             Alcotest.failf "torn abort at point %d (%s): %s" !k
               (policy_name policy) s);
          (match P.allocator_check p with
           | Ok () -> ()
           | Error e ->
             Alcotest.failf "arena broken at point %d (%s): %s" !k
               (policy_name policy) e);
          if !completed then begin
            (* trap never fired: the abort ran to completion and must have
               left nothing for recovery to redo *)
            let s = R.persistent_snapshot r in
            P.recover p;
            if not (String.equal s (R.persistent_snapshot r)) then
              Alcotest.failf "recovery after clean abort not a no-op (%s)"
                (policy_name policy)
          end;
          (* the system keeps working *)
          P.update_tx p (fun () ->
              let x = P.alloc p 16 in
              P.store p x 5;
              P.set_root p 3 x);
          Alcotest.(check int) "post-abort-crash tx works" 5
            (P.read_tx p (fun () -> P.load p (P.get_root p 3)));
          incr k;
          if !k > 20_000 then
            Alcotest.fail "abort crash sweep did not terminate"
        done)
      [ R.Drop_all; R.Keep_all; R.Random_subset 7; R.Torn_words 113 ]

  (* ---- allocator surgery under crashes and aborts ---- *)

  (* Nine blocks a b c x y z e f g in root slots 20..28, allocated in
     that order from the frontier; [e] is freed, so it sits in a bin. *)
  let surgery_root i = 20 + i

  let setup_surgery_region () =
    let r = region () in
    let p = P.open_region r in
    P.update_tx p (fun () ->
        Array.iteri
          (fun i n ->
            let o = P.alloc p n in
            P.store p o (100 + i);
            P.set_root p (surgery_root i) o)
          [| 32; 32; 32; 32; 32; 32; 200; 32; 32 |];
        P.free p (P.get_root p (surgery_root 6));
        P.set_root p (surgery_root 6) 0);
    (r, p)

  (* One transaction performing every kind of allocator surgery. *)
  let surgery_body p =
    let free_slot i =
      P.free p (P.get_root p (surgery_root i));
      P.set_root p (surgery_root i) 0
    in
    let s = P.alloc p 16 in (* split: carved from e's free chunk *)
    P.store p s 7;
    P.set_root p (surgery_root 6) s;
    free_slot 0;
    free_slot 1; (* backward coalesce: b into a *)
    free_slot 4;
    free_slot 3; (* forward coalesce: x absorbs y *)
    free_slot 8 (* top merge: g was allocated last *)

  let observe_surgery p =
    P.read_tx p (fun () ->
        let v i =
          match P.get_root p (surgery_root i) with
          | 0 -> 0
          | o -> P.load p o
        in
        match List.init 9 v with
        | [ 100; 101; 102; 103; 104; 105; 0; 107; 108 ] -> Pre
        | [ 0; 0; 102; 0; 0; 105; 7; 107; 0 ] -> Post
        | l -> Torn (String.concat "," (List.map string_of_int l)))

  let check_arena p what =
    match P.allocator_check p with
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s: arena broken: %s" what e

  (* Crash at every point of the surgery transaction under every policy:
     recovery lands on the pre- or post-state, and the arena (bitmap
     included) passes its structural check. *)
  let test_allocator_surgery_crashes () =
    List.iter
      (fun policy ->
        let k = ref 0 in
        let completed = ref false in
        while not !completed do
          let r, p = setup_surgery_region () in
          R.set_trap r !k;
          (match P.update_tx p (fun () -> surgery_body p) with
           | () ->
             R.clear_trap r;
             completed := true
           | exception R.Crash_point -> ());
          R.crash r policy;
          P.recover p;
          let where = Printf.sprintf "point %d (%s)" !k (policy_name policy) in
          (match observe_surgery p with
           | Post -> ()
           | Pre when not !completed -> ()
           | Pre -> Alcotest.failf "%s: committed surgery lost" where
           | Torn s -> Alcotest.failf "%s: torn surgery: %s" where s);
          check_arena p where;
          (* the recovered arena keeps working *)
          P.update_tx p (fun () ->
              let x = P.alloc p 40 in
              P.store p x 5;
              P.free p x);
          check_arena p (where ^ ", after a follow-up tx");
          incr k;
          if !k > 20_000 then Alcotest.fail "surgery sweep did not terminate"
        done)
      [ R.Drop_all; R.Keep_all; R.Random_subset 7; R.Torn_words 113 ]

  (* The surgery aborted by an exception leaves the arena exactly as it
     was: it passes its check, and the same surgery followed by the same
     allocations then places every block where a control region that
     never saw the abort places it. *)
  let test_allocator_surgery_abort () =
    let then_allocate p =
      P.update_tx p (fun () -> surgery_body p);
      P.update_tx p (fun () -> List.map (P.alloc p) [ 16; 48; 100; 200 ])
    in
    let _, victim = setup_surgery_region () in
    (match P.update_tx victim (fun () -> surgery_body victim; raise Exit) with
     | exception Romulus.Engine.Tx_aborted { cause = Exit; _ } -> ()
     | exception e ->
       Alcotest.failf "expected Tx_aborted{Exit}, got %s" (Printexc.to_string e)
     | () -> Alcotest.fail "raising tx must not commit");
    (match observe_surgery victim with
     | Pre -> ()
     | Post | Torn _ -> Alcotest.fail "aborted surgery visible");
    check_arena victim "after the aborted surgery";
    let _, control = setup_surgery_region () in
    Alcotest.(check (list int)) "same placement as a region without the abort"
      (then_allocate control) (then_allocate victim);
    check_arena victim "after the committed surgery"

  (* An arena in the allocator format before the chunk-start bitmap is
     refused with a typed Corrupt when the region is opened. *)
  let test_old_arena_format_refused () =
    let r, p = open_fresh () in
    P.update_tx p (fun () -> P.set_root p 0 (P.alloc p 16));
    let found = ref 0 in
    for i = 0 to (R.size r / 8) - 1 do
      if R.load r (8 * i) = Palloc.magic then begin
        R.store r (8 * i) 0x50414C4C (* "PALL", the pre-bitmap magic *);
        R.pwb r (8 * i);
        incr found
      end
    done;
    R.pfence r;
    Alcotest.(check bool) "allocator magic found" true (!found > 0);
    R.crash r R.Drop_all;
    match P.open_region r with
    | exception Palloc.Corrupt _ -> ()
    | exception e ->
      Alcotest.failf "expected Palloc.Corrupt, got %s" (Printexc.to_string e)
    | _ -> Alcotest.fail "a pre-bitmap arena must not open"

  (* ---- qcheck: aborted alloc+store+free leaves the allocator intact ---- *)

  (* Differential property: a victim region runs a committed prologue,
     then an alloc+store+free transaction that aborts; a control region
     runs only the prologue.  Afterwards both must satisfy the same
     allocation requests with identical offsets (the allocator is
     deterministic, so identical metadata <=> identical placement), the
     victim's arena must pass its structural check, and recovery on the
     victim must be a byte-level no-op.  An empty prologue exercises the
     abort as the very first transaction after the formatting open. *)
  let prop_aborted_tx_allocator_intact =
    let open QCheck in
    let gen =
      Gen.(
        triple
          (list_size (int_bound 5) (map (fun n -> 16 + (8 * (n mod 24))) nat))
          (list_size (int_bound 6) (map (fun n -> 8 + (8 * (n mod 40))) nat))
          (list_size (int_bound 5) bool))
    in
    Test.make ~count:30
      ~name:(P.name ^ ": aborted alloc+store+free leaves allocator intact")
      (make
         ~print:(fun (pro, sizes, frees) ->
           Printf.sprintf "<prologue %d, %d allocs, %d free flags>"
             (List.length pro) (List.length sizes) (List.length frees))
         gen)
      (fun (prologue, tx_sizes, free_flags) ->
        let mk () =
          let r = region () in
          (r, P.open_region r)
        in
        let r1, victim = mk () in
        let _, control = mk () in
        let run_prologue p =
          List.iteri
            (fun i n ->
              P.update_tx p (fun () ->
                  let o = P.alloc p n in
                  P.store p o (i + 1);
                  P.set_root p i o))
            prologue
        in
        run_prologue victim;
        run_prologue control;
        (* the aborting transaction: fresh allocs with stores, frees of a
           subset of the prologue blocks, then a raise *)
        (match
           P.update_tx victim (fun () ->
               List.iter
                 (fun n ->
                   let o = P.alloc victim n in
                   P.store victim o 0xDEAD)
                 tx_sizes;
               List.iteri
                 (fun i doit ->
                   if doit && i < List.length prologue then
                     P.free victim (P.get_root victim i))
                 free_flags;
               raise Exit)
         with
         | exception Romulus.Engine.Tx_aborted { cause = Exit; _ } -> ()
         | exception e ->
           Test.fail_reportf "expected Tx_aborted{Exit}, got %s"
             (Printexc.to_string e)
         | () -> Test.fail_report "aborting tx committed");
        (match P.allocator_check victim with
         | Ok () -> ()
         | Error e -> Test.fail_reportf "victim arena: %s" e);
        (* recovery finds nothing to redo after a clean abort *)
        let s = R.persistent_snapshot r1 in
        P.recover victim;
        if not (String.equal s (R.persistent_snapshot r1)) then
          Test.fail_report "recovery after abort changed the image";
        (* prologue blocks (including any the aborted tx freed) intact *)
        List.iteri
          (fun i _ ->
            let v =
              P.read_tx victim (fun () -> P.load victim (P.get_root victim i))
            in
            if v <> i + 1 then
              Test.fail_reportf "prologue block %d clobbered: %d" i v)
          prologue;
        (* identical metadata <=> identical placement of fresh requests *)
        let probe p =
          P.update_tx p (fun () ->
              List.map (fun n -> P.alloc p n) [ 24; 40; 64; 104; 16 ])
        in
        let a = probe victim and b = probe control in
        if a <> b then
          Test.fail_reportf "allocator diverged after abort: [%s] vs [%s]"
            (String.concat ";" (List.map string_of_int a))
            (String.concat ";" (List.map string_of_int b));
        true)

  (* ---- concurrency (real domains) ---- *)

  let test_concurrent_counter () =
    let _, p = open_fresh () in
    let obj =
      P.update_tx p (fun () ->
          let o = P.alloc p 16 in
          P.store p o 0;
          P.set_root p 0 o;
          o)
    in
    let writer () =
      Sync_prims.Tid.with_slot (fun _ ->
          for _ = 1 to 300 do
            P.update_tx p (fun () -> P.store p obj (P.load p obj + 1))
          done)
    in
    let ds = List.init 3 (fun _ -> Domain.spawn writer) in
    List.iter Domain.join ds;
    Alcotest.(check int) "all increments applied" 900
      (P.read_tx p (fun () -> P.load p obj))

  let test_concurrent_readers_consistent () =
    let _, p = open_fresh () in
    let obj =
      P.update_tx p (fun () ->
          let o = P.alloc p 16 in
          P.store p o 0;
          P.store p (o + 8) 0;
          P.set_root p 0 o;
          o)
    in
    let torn = Atomic.make false in
    let stop = Atomic.make false in
    let writer () =
      Sync_prims.Tid.with_slot (fun _ ->
          for i = 1 to 400 do
            P.update_tx p (fun () ->
                P.store p obj i;
                P.store p (obj + 8) i)
          done;
          Atomic.set stop true)
    in
    let reader () =
      Sync_prims.Tid.with_slot (fun _ ->
          while not (Atomic.get stop) do
            P.read_tx p (fun () ->
                let a = P.load p obj in
                let b = P.load p (obj + 8) in
                if a <> b then Atomic.set torn true)
          done)
    in
    let ds = List.map Domain.spawn [ writer; reader; reader ] in
    List.iter Domain.join ds;
    Alcotest.(check bool) "transactional isolation" false (Atomic.get torn)

  (* A power failure with several domains mid-flight: every domain dies
     on Crash_point (the region is dead for all of them), the "restart"
     recovers, and the counter must be consistent — every increment that
     was acknowledged before the crash survives. *)
  let test_concurrent_crash_restart () =
    let r, p = open_fresh () in
    let obj =
      P.update_tx p (fun () ->
          let o = P.alloc p 16 in
          P.store p o 0;
          P.set_root p 0 o;
          o)
    in
    let acked = Atomic.make 0 in
    let worker () =
      Sync_prims.Tid.with_slot (fun _ ->
          try
            for _ = 1 to 10_000 do
              P.update_tx p (fun () -> P.store p obj (P.load p obj + 1));
              Atomic.incr acked
            done
          with R.Crash_point -> (* the machine died under us *) ())
    in
    R.set_trap r 2_000;
    let ds = List.init 3 (fun _ -> Domain.spawn worker) in
    List.iter Domain.join ds;
    R.crash r R.Drop_all;
    P.recover p;
    let v = P.read_tx p (fun () -> P.load p obj) in
    let a = Atomic.get acked in
    if v < a then
      Alcotest.failf "lost acknowledged increments: counter %d < acked %d" v a;
    if v > a + 3 then
      Alcotest.failf "counter %d exceeds acked %d + in-flight" v a;
    (* the system keeps working after the restart *)
    P.update_tx p (fun () -> P.store p obj (P.load p obj + 1));
    Alcotest.(check int) "post-restart increment" (v + 1)
      (P.read_tx p (fun () -> P.load p obj))

  (* ---- media faults: scrub, repair, typed refusal ---- *)

  let populate_for_scrub p =
    P.update_tx p (fun () ->
        let o = P.alloc p 64 in
        for i = 0 to 7 do
          P.store p (o + (8 * i)) (1000 + i)
        done;
        P.set_root p 0 o;
        o)

  (* On pristine media a scrub is a read-only audit: it visits lines,
     repairs nothing, and leaves the persistent image byte-identical. *)
  let test_scrub_clean_is_noop () =
    let r, p = open_fresh () in
    let obj = populate_for_scrub p in
    let before = R.persistent_snapshot r in
    let rep = P.scrub p in
    Alcotest.(check bool) "lines audited" true
      (rep.Romulus.Engine.scrubbed > 0);
    Alcotest.(check int) "nothing repaired" 0 rep.Romulus.Engine.repaired;
    Alcotest.(check bool) "image untouched" true
      (String.equal before (R.persistent_snapshot r));
    Alcotest.(check int) "data intact" 1000
      (P.read_tx p (fun () -> P.load p obj))

  (* Rot a line deep in the used span.  Twin-copy designs must repair it
     and restore the exact pre-rot image; single-image baselines must
     refuse with the typed Unrepairable — and afterwards every read
     either raises the typed media error or returns correct data, never
     silently-wrong bytes. *)
  let test_scrub_corrupted_line () =
    let r, p = open_fresh () in
    let obj = populate_for_scrub p in
    let clean = R.persistent_snapshot r in
    let spans = P.media_spans p in
    let twin = List.length spans = 2 in
    let base, span = List.hd spans in
    Alcotest.(check bool) "span covers data" true (span > 0);
    let line = (base + span - 1) / R.line_size r in
    R.corrupt_line r ~line;
    if twin then begin
      let rep = P.scrub p in
      Alcotest.(check bool) "repaired the rotten line" true
        (rep.Romulus.Engine.repaired >= 1);
      Alcotest.(check bool) "image restored byte-identical" true
        (String.equal clean (R.persistent_snapshot r));
      Alcotest.(check int) "data readable again" 1000
        (P.read_tx p (fun () -> P.load p obj));
      Alcotest.(check int) "second scrub finds nothing" 0
        (P.scrub p).Romulus.Engine.repaired
    end
    else begin
      (match P.scrub p with
       | exception Romulus.Engine.Unrepairable _ -> ()
       | (_ : Romulus.Engine.scrub_report) ->
         Alcotest.fail "no twin to repair from: scrub must refuse");
      (* detection-only: reads surface the typed error or correct data *)
      for i = 0 to 7 do
        match P.read_tx p (fun () -> P.load p (obj + (8 * i))) with
        | v ->
          Alcotest.(check int)
            (Printf.sprintf "slot %d intact or refused" i)
            (1000 + i) v
        | exception R.Media_error _ -> ()
      done
    end

  (* Rot injected before a power failure: recovery (which scrubs first)
     must hand back a correct image on twin-copy designs. *)
  let test_scrub_at_recovery () =
    let spans_of () =
      let _, p = open_fresh () in
      List.length (P.media_spans p)
    in
    if spans_of () = 2 then begin
      let r, p = open_fresh () in
      let obj = populate_for_scrub p in
      (* settle into a durably-IDL image first: the engine publishes IDL
         lazily, so right after a commit the durable state is still CPY
         (under which main-copy rot is — correctly — unrepairable) *)
      R.crash r R.Drop_all;
      P.recover p;
      let clean = R.persistent_snapshot r in
      let base, span = List.hd (P.media_spans p) in
      let line = (base + span - 1) / R.line_size r in
      R.corrupt_line r ~line;
      R.crash r R.Drop_all;
      P.recover p;
      Alcotest.(check bool) "recovery repaired the rot" true
        (String.equal clean (R.persistent_snapshot r));
      Alcotest.(check int) "data intact after restart" 1000
        (P.read_tx p (fun () -> P.load p obj))
    end

  (* ---- qcheck: random transactions + random crash points ---- *)

  let prop_random_crash_atomicity =
    let open QCheck in
    let gen =
      Gen.(
        triple
          (list_size (int_bound 30) (pair (int_bound 9) small_nat))
          small_nat (int_bound 4))
    in
    Test.make ~count:40
      ~name:(P.name ^ ": random tx crash atomicity")
      (make
         ~print:(fun (ops, k, pol) ->
           Printf.sprintf "<%d stores, trap=%d, policy=%d>" (List.length ops)
             k pol)
         gen)
      (fun (ops, trap, pol) ->
        let r = region () in
        let p = P.open_region r in
        let arr =
          P.update_tx p (fun () ->
              let a = P.alloc p 80 in
              for i = 0 to 9 do
                P.store p (a + (8 * i)) i
              done;
              P.set_root p 0 a;
              a)
        in
        let model = Array.init 10 (fun i -> i) in
        let next = Array.copy model in
        List.iter (fun (slot, v) -> next.(slot) <- v) ops;
        R.set_trap r trap;
        let committed =
          match
            P.update_tx p (fun () ->
                List.iter (fun (slot, v) -> P.store p (arr + (8 * slot)) v) ops)
          with
          | () ->
            R.clear_trap r;
            true
          | exception R.Crash_point -> false
        in
        let policy =
          match pol with
          | 0 -> R.Drop_all
          | 1 -> R.Keep_all
          | 2 -> R.Torn_words (trap + 13)
          | n -> R.Random_subset n
        in
        R.crash r policy;
        P.recover p;
        let got =
          P.read_tx p (fun () ->
              Array.init 10 (fun i -> P.load p (arr + (8 * i))))
        in
        if committed then got = next else got = model || got = next)

  (* Every test leaves the process-global failpoint registry disarmed,
     even when the test body (or an Alcotest assertion) raises: a fault a
     failing test armed must never fire inside a later test. *)
  let with_disarm (name, speed, f) =
    ( name,
      speed,
      fun x -> Fun.protect ~finally:Fault.disarm (fun () -> f x) )

  let suite =
    let tc = Alcotest.test_case in
    List.map with_disarm
    @@ [ tc "root round-trip" `Quick test_root_round_trip;
      tc "blob round-trip" `Quick test_blob_round_trip;
      tc "tx result values" `Quick test_tx_result_value;
      tc "store outside tx raises" `Quick test_store_outside_tx_raises;
      tc "store in read_tx raises" `Quick test_store_in_read_tx_raises;
      tc "nested txs flatten" `Quick test_nested_txs_flatten;
      tc "exception semantics" `Quick test_exception_semantics;
      tc "raising read_tx departs ingress" `Quick test_read_tx_raise_departs;
      tc "invalid free is typed and aborts" `Quick test_invalid_free_typed;
      tc "out of memory is typed and aborts" `Quick test_out_of_memory_typed;
      tc "root index out of bounds is typed" `Quick
        test_root_out_of_bounds_typed;
      tc "survives clean crash" `Quick test_survives_clean_crash;
      tc "reopen region recovers" `Quick test_reopen_region;
      tc "uncommitted tx rolls back" `Quick test_uncommitted_tx_rolls_back;
      tc "fence bound" `Quick test_fence_bound;
      tc "read tx is fence-free" `Quick test_read_tx_no_fences;
      tc "crash injection (drop all)" `Slow test_crash_injection_drop_all;
      tc "crash injection (keep all)" `Slow test_crash_injection_keep_all;
      tc "crash injection (random)" `Slow test_crash_injection_random;
      tc "crash injection (torn words)" `Slow test_crash_injection_torn_words;
      tc "crash during recovery" `Slow test_crash_during_recovery;
      tc "crash inside the abort path" `Slow test_crash_inside_abort_path;
      tc "recovery is idempotent" `Slow test_recover_idempotent;
      tc "blob crash atomicity" `Slow test_blob_crash_atomicity;
      tc "allocator churn with crashes" `Slow
        test_allocator_churn_with_crashes;
      tc "allocator surgery under crashes" `Slow
        test_allocator_surgery_crashes;
      tc "aborted allocator surgery" `Quick test_allocator_surgery_abort;
      tc "pre-bitmap arena refused" `Quick test_old_arena_format_refused;
      tc "scrub on clean media is a no-op" `Quick test_scrub_clean_is_noop;
      tc "scrub repairs or refuses rot" `Quick test_scrub_corrupted_line;
      tc "recovery scrubs before rolling" `Quick test_scrub_at_recovery ]
    @ (if P.concurrent then
         [ tc "concurrent counter" `Quick test_concurrent_counter;
           tc "concurrent readers consistent" `Quick
             test_concurrent_readers_consistent;
           tc "crash with domains in flight" `Quick
             test_concurrent_crash_restart ]
       else [])
    @ List.map QCheck_alcotest.to_alcotest
        [ prop_random_crash_atomicity; prop_aborted_tx_allocator_intact ]
end
