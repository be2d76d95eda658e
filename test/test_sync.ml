(* Real-domain tests for the synchronization substrate.  The measurement
   host has 2 shared vCPUs (nproc = 2), so these exercise correctness
   under preemptive interleaving rather than parallel speedup. *)

open Sync_prims

let spawn_all fs = List.map Domain.spawn fs
let join_all ds = List.iter Domain.join ds

(* ---- Tid ---- *)

let test_tid_with_slot_distinct () =
  (* all four domains hold their slot at the same time: the ids they were
     given must be pairwise distinct *)
  let seen = Atomic.make [] in
  let arrived = Atomic.make 0 in
  let body () =
    Tid.with_slot (fun tid ->
        let rec push () =
          let old = Atomic.get seen in
          if not (Atomic.compare_and_set seen old (tid :: old)) then push ()
        in
        push ();
        Atomic.incr arrived;
        while Atomic.get arrived < 4 do
          Domain.cpu_relax ()
        done)
  in
  join_all (spawn_all [ body; body; body; body ]);
  let ids = Atomic.get seen in
  Alcotest.(check int) "four registrations" 4 (List.length ids);
  Alcotest.(check int) "all distinct" 4
    (List.length (List.sort_uniq compare ids))

let test_tid_reuse_after_release () =
  (* sequential domains can reuse slots: the pool never runs out *)
  for _ = 1 to 300 do
    Domain.join (Domain.spawn (fun () -> Tid.with_slot (fun tid -> ignore tid)))
  done

let test_tid_nested_with_slot () =
  Tid.with_slot (fun a -> Tid.with_slot (fun b ->
      Alcotest.(check int) "nested reuses the same slot" a b))

(* ---- Spinlock ---- *)

let test_spinlock_mutual_exclusion () =
  let lock = Spinlock.create () in
  let counter = ref 0 in
  let worker () =
    for _ = 1 to 2_000 do
      Spinlock.lock lock;
      (* non-atomic increment: only safe if the lock works *)
      counter := !counter + 1;
      Spinlock.unlock lock
    done
  in
  join_all (spawn_all [ worker; worker; worker; worker ]);
  Alcotest.(check int) "all increments kept" 8_000 !counter

let test_spinlock_try_lock () =
  let lock = Spinlock.create () in
  Alcotest.(check bool) "acquire free lock" true (Spinlock.try_lock lock);
  Alcotest.(check bool) "fail on held lock" false (Spinlock.try_lock lock);
  Spinlock.unlock lock;
  Alcotest.(check bool) "acquire after unlock" true (Spinlock.try_lock lock)

(* ---- Read_indicator ---- *)

let test_read_indicator () =
  let ri = Read_indicator.create () in
  Alcotest.(check bool) "initially empty" true (Read_indicator.is_empty ri);
  Read_indicator.arrive ri 3;
  Read_indicator.arrive ri 3;
  (* counting: re-entrant *)
  Alcotest.(check bool) "occupied" false (Read_indicator.is_empty ri);
  Read_indicator.depart ri 3;
  Alcotest.(check bool) "still occupied after one depart" false
    (Read_indicator.is_empty ri);
  Read_indicator.depart ri 3;
  Alcotest.(check bool) "empty again" true (Read_indicator.is_empty ri)

(* A drain scans only the slots below the registration watermark: the
   highest slot must still be seen, and a departed reader on a high slot
   leaves the indicator empty. *)
let test_read_indicator_watermark () =
  let top = Tid.max_threads - 1 in
  let ri = Read_indicator.create () in
  Read_indicator.arrive ri 0;
  Alcotest.(check bool) "first reader on slot 0" false
    (Read_indicator.is_empty ri);
  Read_indicator.depart ri 0;
  Read_indicator.arrive ri top;
  Alcotest.(check bool) "reader on the last slot" false
    (Read_indicator.is_empty ri);
  Read_indicator.depart ri top;
  Alcotest.(check bool) "last slot departed" true (Read_indicator.is_empty ri);
  let ri = Read_indicator.create () in
  Read_indicator.arrive ri 100;
  Read_indicator.depart ri 100;
  Alcotest.(check bool) "slot 100 arrived and departed" true
    (Read_indicator.is_empty ri);
  Read_indicator.wait_empty ri;
  Read_indicator.arrive ri 3;
  Alcotest.(check bool) "reader below the watermark" false
    (Read_indicator.is_empty ri)

(* ---- C-RW-WP ---- *)

(* The writer maintains the invariant a = b; readers must never observe a
   torn pair. *)
let test_crwwp_no_torn_reads () =
  let lock = Crwwp.create () in
  let a = ref 0 and b = ref 0 in
  let torn = Atomic.make false in
  let writer () =
    for i = 1 to 2_000 do
      Crwwp.write_lock lock;
      a := i;
      b := i;
      Crwwp.write_unlock lock
    done
  in
  let reader () =
    Tid.with_slot (fun tid ->
        for _ = 1 to 2_000 do
          Crwwp.read_lock lock tid;
          let x = !a and y = !b in
          if x <> y then Atomic.set torn true;
          Crwwp.read_unlock lock tid
        done)
  in
  join_all (spawn_all [ writer; reader; reader ]);
  Alcotest.(check bool) "no torn read" false (Atomic.get torn)

let test_crwwp_writer_excludes_writer () =
  let lock = Crwwp.create () in
  let counter = ref 0 in
  let writer () =
    for _ = 1 to 2_000 do
      Crwwp.write_lock lock;
      counter := !counter + 1;
      Crwwp.write_unlock lock
    done
  in
  join_all (spawn_all [ writer; writer; writer ]);
  Alcotest.(check int) "writer mutual exclusion" 6_000 !counter

(* ---- Flat combining ---- *)

let test_flat_combining_counts () =
  let fc = Flat_combining.create () in
  let counter = ref 0 in
  let exec run = run () in
  let worker () =
    Tid.with_slot (fun _ ->
        for _ = 1 to 1_000 do
          Flat_combining.apply fc (fun () -> counter := !counter + 1) ~exec
        done)
  in
  join_all (spawn_all [ worker; worker; worker; worker ]);
  Alcotest.(check int) "every request executed once" 4_000 !counter;
  Alcotest.(check int) "requests served" 4_000
    (Flat_combining.requests_served fc);
  Alcotest.(check bool) "combining happened (batches <= requests)" true
    (Flat_combining.batches fc <= 4_000)

let test_flat_combining_result_and_exn () =
  let fc = Flat_combining.create () in
  let exec run = run () in
  let result = ref 0 in
  Flat_combining.apply fc (fun () -> result := 41 + 1) ~exec;
  Alcotest.(check int) "closure ran" 42 !result;
  Alcotest.check_raises "exception propagates to requester" Exit (fun () ->
      Flat_combining.apply fc (fun () -> raise Exit) ~exec)

let test_flat_combining_exec_failure_hits_all () =
  let fc = Flat_combining.create () in
  Alcotest.check_raises "exec failure reaches requester" Not_found (fun () ->
      Flat_combining.apply fc (fun () -> ()) ~exec:(fun _ -> raise Not_found));
  (* the array must be clean again afterwards *)
  let ok = ref false in
  Flat_combining.apply fc (fun () -> ok := true) ~exec:(fun run -> run ());
  Alcotest.(check bool) "usable after failure" true !ok

(* Combiners scan only up to the registration watermark, not the whole
   Tid.max_threads slot array. *)
let test_flat_combining_scan_watermark () =
  let fc = Flat_combining.create () in
  Alcotest.(check int) "no registrations, nothing to scan" 0
    (Flat_combining.scan_length fc);
  let exec run = run () in
  Tid.with_slot (fun tid ->
      Flat_combining.apply fc (fun () -> ()) ~exec;
      let expect = tid + 1 in
      Alcotest.(check int) "watermark = highest registered tid + 1" expect
        (Flat_combining.scan_length fc);
      Alcotest.(check bool) "far below the slot-array size" true
        (expect < Tid.max_threads);
      let b0 = Flat_combining.batches fc in
      let s0 = Flat_combining.slots_scanned fc in
      Flat_combining.apply fc (fun () -> ()) ~exec;
      let batches = Flat_combining.batches fc - b0 in
      Alcotest.(check int) "each batch scans only the live prefix"
        (s0 + (batches * expect))
        (Flat_combining.slots_scanned fc);
      (* A high watermark with a single pending request: the pending
         counter stops the combiner's scan at the lone request instead
         of walking every empty slot up to the watermark. *)
      let ready = Atomic.make 0 and release = Atomic.make false in
      let holders =
        List.init 6 (fun _ ->
            Domain.spawn (fun () ->
                Tid.with_slot (fun _ ->
                    Flat_combining.apply fc (fun () -> ()) ~exec;
                    Atomic.incr ready;
                    while not (Atomic.get release) do
                      Domain.cpu_relax ()
                    done)))
      in
      while Atomic.get ready < 6 do Domain.cpu_relax () done;
      let wm = Flat_combining.scan_length fc in
      Alcotest.(check bool) "watermark raised by the helpers" true
        (wm > expect);
      let s1 = Flat_combining.slots_scanned fc in
      Flat_combining.apply fc (fun () -> ()) ~exec;
      let delta = Flat_combining.slots_scanned fc - s1 in
      Alcotest.(check bool) "empty-slot scan stops early" true (delta < wm);
      Alcotest.(check int) "scanned only up to the lone request" expect delta;
      Atomic.set release true;
      List.iter Domain.join holders)

(* ---- run_rounds: the per-round raiser rule, standalone ----

   The group-commit front-end reuses the combiner's raiser protocol one
   level up: whole logical transactions are nested inside one coalesced
   engine transaction ([exec] models begin/abort/commit), and a raising
   logical tx must be answered alone with its exception while the
   survivors retry as a new group. *)

let test_run_rounds_all_commit_one_exec () =
  let execs = ref 0 in
  let log = ref [] in
  let answers = ref [] in
  Flat_combining.run_rounds
    [ (1, fun () -> log := 1 :: !log);
      (2, fun () -> log := 2 :: !log);
      (3, fun () -> log := 3 :: !log) ]
    ~exec:(fun run -> incr execs; run ())
    ~answer:(fun k r -> answers := (k, r) :: !answers);
  Alcotest.(check int) "one engine round for the whole group" 1 !execs;
  Alcotest.(check (list int)) "ran in submission order" [ 1; 2; 3 ]
    (List.rev !log);
  Alcotest.(check int) "every tx answered" 3 (List.length !answers);
  List.iter
    (fun (_, r) -> Alcotest.(check bool) "answered ok" true (r = None))
    !answers

(* A raising logical tx: the attempt's effects are discarded (exec
   aborts), the raiser is answered alone, and the survivors — including
   those that already ran in the poisoned attempt — commit in a fresh
   round. *)
let test_run_rounds_raiser_fails_alone () =
  let execs = ref 0 in
  let committed = ref [] in
  let answers = Hashtbl.create 8 in
  let staged = ref [] in
  let exec run =
    incr execs;
    staged := [];
    run ();
    (* commit point: only a round that completes publishes its effects *)
    committed := !committed @ List.rev !staged
  in
  let tx k = (k, fun () -> if k = 2 then raise Exit else staged := k :: !staged) in
  Flat_combining.run_rounds
    [ tx 1; tx 2; tx 3 ]
    ~exec
    ~answer:(fun k r -> Hashtbl.replace answers k r);
  Alcotest.(check int) "poisoned round + survivor retry" 2 !execs;
  Alcotest.(check (list int)) "survivors committed once, in order" [ 1; 3 ]
    !committed;
  Alcotest.(check bool) "raiser answered with its exception" true
    (Hashtbl.find answers 2 = Some Exit);
  Alcotest.(check bool) "survivors answered ok" true
    (Hashtbl.find answers 1 = None && Hashtbl.find answers 3 = None)

(* Every tx raising: one round per raiser, each answered with its own
   exception, and the loop terminates. *)
let test_run_rounds_all_raise () =
  let execs = ref 0 in
  let answers = Hashtbl.create 8 in
  Flat_combining.run_rounds
    [ (1, fun () -> raise (Failure "a"));
      (2, fun () -> raise (Failure "b")) ]
    ~exec:(fun run -> incr execs; run ())
    ~answer:(fun k r -> Hashtbl.replace answers k r);
  Alcotest.(check int) "one round per raiser" 2 !execs;
  Alcotest.(check bool) "each answered with its own failure" true
    (Hashtbl.find answers 1 = Some (Failure "a")
     && Hashtbl.find answers 2 = Some (Failure "b"))

(* A failure of the engine machinery itself (after every logical tx ran:
   no identifiable raiser) answers the whole round. *)
let test_run_rounds_exec_failure_hits_round () =
  let answers = Hashtbl.create 8 in
  Flat_combining.run_rounds
    [ (1, fun () -> ()); (2, fun () -> ()) ]
    ~exec:(fun run -> run (); raise Not_found)
    ~answer:(fun k r -> Hashtbl.replace answers k r);
  Alcotest.(check bool) "whole round answered with the commit failure" true
    (Hashtbl.find answers 1 = Some Not_found
     && Hashtbl.find answers 2 = Some Not_found)

(* Duplicate keys are told apart by physical identity: the raiser's own
   cell is answered with the exception, its twin commits. *)
let test_run_rounds_duplicate_keys () =
  let execs = ref 0 in
  let oks = ref 0 and errs = ref 0 in
  let first = ref true in
  Flat_combining.run_rounds
    [ (9, fun () -> if !first then (first := false; raise Exit));
      (9, fun () -> ()) ]
    ~exec:(fun run -> incr execs; run ())
    ~answer:(fun k r ->
      Alcotest.(check int) "key preserved" 9 k;
      match r with None -> incr oks | Some _ -> incr errs);
  Alcotest.(check int) "two rounds" 2 !execs;
  Alcotest.(check int) "twin committed" 1 !oks;
  Alcotest.(check int) "raiser answered alone" 1 !errs

(* ---- Left-Right ---- *)

(* Each instance keeps the invariant fst = snd; the writer mutates only the
   instance readers are not on, so readers must never see a torn pair. *)
let test_left_right_no_torn_reads () =
  let lr = Left_right.create () in
  let inst = [| [| 0; 0 |]; [| 0; 0 |] |] in
  let torn = Atomic.make false in
  let stop = Atomic.make false in
  let writer () =
    for i = 1 to 1_000 do
      Left_right.write lr (fun side ->
          inst.(side).(0) <- i;
          (* widen the race window *)
          for _ = 1 to 50 do Domain.cpu_relax () done;
          inst.(side).(1) <- i)
    done;
    Atomic.set stop true
  in
  let reader () =
    Tid.with_slot (fun tid ->
        while not (Atomic.get stop) do
          Left_right.read lr tid (fun side ->
              let x = inst.(side).(0) in
              let y = inst.(side).(1) in
              if x <> y then Atomic.set torn true)
        done)
  in
  join_all (spawn_all [ writer; reader; reader ]);
  Alcotest.(check bool) "no torn read" false (Atomic.get torn);
  Alcotest.(check int) "both instances converged (0)" 1_000 inst.(0).(0);
  Alcotest.(check int) "both instances converged (1)" 1_000 inst.(1).(1)

let test_left_right_reader_sees_latest_committed () =
  let lr = Left_right.create () in
  let inst = [| ref 0; ref 0 |] in
  Left_right.write lr (fun side -> inst.(side) := 7);
  Tid.with_slot (fun tid ->
      let v = Left_right.read lr tid (fun side -> !(inst.(side))) in
      Alcotest.(check int) "post-write read" 7 v)

let test_left_right_toggle_protocol () =
  let lr = Left_right.create () in
  Alcotest.(check int) "initial instance" 0 (Left_right.which_instance lr);
  Left_right.toggle_lr lr;
  Alcotest.(check int) "toggled" 1 (Left_right.which_instance lr);
  (* no readers: the version toggle must not block *)
  Left_right.toggle_version_and_wait lr;
  Left_right.toggle_lr lr;
  Alcotest.(check int) "toggled back" 0 (Left_right.which_instance lr)

let suite =
  let tc = Alcotest.test_case in
  [ tc "tid: distinct slots" `Quick test_tid_with_slot_distinct;
    tc "tid: slots are reusable" `Slow test_tid_reuse_after_release;
    tc "tid: nested with_slot" `Quick test_tid_nested_with_slot;
    tc "spinlock: mutual exclusion" `Quick test_spinlock_mutual_exclusion;
    tc "spinlock: try_lock" `Quick test_spinlock_try_lock;
    tc "read indicator: counting" `Quick test_read_indicator;
    tc "read indicator: watermark" `Quick test_read_indicator_watermark;
    tc "crwwp: no torn reads" `Quick test_crwwp_no_torn_reads;
    tc "crwwp: writers exclude writers" `Quick test_crwwp_writer_excludes_writer;
    tc "flat combining: all requests once" `Quick test_flat_combining_counts;
    tc "flat combining: results and exceptions" `Quick
      test_flat_combining_result_and_exn;
    tc "flat combining: exec failure" `Quick
      test_flat_combining_exec_failure_hits_all;
    tc "flat combining: scan watermark" `Quick
      test_flat_combining_scan_watermark;
    tc "run_rounds: whole group in one round" `Quick
      test_run_rounds_all_commit_one_exec;
    tc "run_rounds: raiser fails alone, survivors retry" `Quick
      test_run_rounds_raiser_fails_alone;
    tc "run_rounds: every tx raising terminates" `Quick
      test_run_rounds_all_raise;
    tc "run_rounds: commit failure hits the round" `Quick
      test_run_rounds_exec_failure_hits_round;
    tc "run_rounds: duplicate keys by identity" `Quick
      test_run_rounds_duplicate_keys;
    tc "left-right: no torn reads" `Quick test_left_right_no_torn_reads;
    tc "left-right: read after write" `Quick
      test_left_right_reader_sees_latest_committed;
    tc "left-right: toggle protocol" `Quick test_left_right_toggle_protocol ]

let () = Alcotest.run "sync" [ ("sync", suite) ]
