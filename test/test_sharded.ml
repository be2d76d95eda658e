(* Conformance matrix for the sharded RomulusDB, mirroring the PTM
   suite's categories at the KV level: abort semantics, crash sweeps at
   every instruction boundary under all four crash policies, recovery
   idempotence, scrub repair-or-refuse — against shards=1 (which must be
   bit-for-bit equivalent to Romulus_db over the same operations) and
   shards=4 — plus the crash windows no campaign row covers: the
   CORRECTNESS.md §10 lost-update regressions, where a single-key write
   races an aborting batch on the same key, and a kill at every
   migration failpoint with the exact resume count.  Traps and kills are
   armed through Crash_driver (the early race re-arms its own failpoint
   from inside the window); the windows a tier-1 crashtest row runs on
   all five PTMs (sharded, chunked, migrate, group) are left to it. *)

module R = Pmem.Region
module D = Crash_driver
module Db = Kv.Romulus_db.Default
module Sd = Kv.Sharded_db.Default
module Sc = Kv.Sharded_db.Counters

(* the store's own counter (it lives with this store handle) *)
let counted db c = Sc.get (Sd.counters db) c

let region ?(size = 1 lsl 18) () = R.create ~size ()

let regions ?size n = Array.init n (fun _ -> region ?size ())

let open_sharded ?(shards = 4) ?(initial_buckets = 8) ?size ?chunk_bytes
    ?spill_threshold ?admission_budget ?clear_flush_threshold () =
  let rs = regions ?size shards in
  ( rs,
    Sd.open_db ~initial_buckets ?chunk_bytes ?spill_threshold
      ?admission_budget ?clear_flush_threshold rs )

let crash_all rs policy = Array.iter (fun r -> R.crash r policy) rs

(* every test must leave the global failpoint registry clean *)
let with_disarm f =
  Fun.protect ~finally:(fun () -> Fault.disarm ()) f

(* run [op] with [inj] armed on [rs]; the test fails unless it fired and
   the crash reached the caller *)
let must_fire ?hook what rs inj op =
  match D.armed ?hook rs inj op with
  | true, None -> ()
  | _ -> Alcotest.failf "%s did not fire" what

let check_ok what db =
  match Sd.check db with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" what e

let key i = Printf.sprintf "key%03d" i
let value i = Printf.sprintf "value-%04d" i

(* seed [n] keys through individual durable puts *)
let seed db n =
  for i = 0 to n - 1 do
    Sd.put db (key i) (value i)
  done

(* a batch guaranteed to span several shards: enough distinct keys that
   4 shards cannot all collide *)
let batch_ops =
  [ ("batch-a", Some "A"); ("batch-b", Some "B"); ("batch-c", Some "C");
    ("batch-d", Some "D"); (key 1, Some "overwritten"); (key 2, None) ]

let run_batch db =
  Sd.write_batch db (fun b ->
      List.iter
        (fun (k, v) ->
          match v with
          | Some v -> Sd.put b k v
          | None -> ignore (Sd.delete b k))
        batch_ops)

(* all-or-nothing oracle after a crashed [run_batch] over [seed db 12] *)
let assert_all_or_nothing what db =
  check_ok what db;
  let applied = Sd.get db "batch-a" = Some "A" in
  List.iter
    (fun (k, v) ->
      let got = Sd.get db k in
      let want =
        if applied then v
        else if k = key 1 then Some (value 1)
        else if k = key 2 then Some (value 2)
        else None
      in
      if got <> want then
        Alcotest.failf "%s: half-applied batch at %s (%s)" what k
          (if applied then "expected applied" else "expected rolled back"))
    batch_ops;
  (* untouched committed keys always survive *)
  for i = 3 to 11 do
    if Sd.get db (key i) <> Some (value i) then
      Alcotest.failf "%s: lost committed key %s" what (key i)
  done;
  applied

(* ---- basics ---- *)

let test_basics () =
  let _, db = open_sharded () in
  Alcotest.(check int) "shards" 4 (Sd.shards db);
  seed db 100;
  Alcotest.(check int) "count" 100 (Sd.count db);
  (* the route must actually spread keys over all four shards *)
  let used = Array.make 4 0 in
  for i = 0 to 99 do
    let s = Sd.shard_of_key db (key i) in
    used.(s) <- used.(s) + 1
  done;
  Array.iteri
    (fun i n ->
      if n = 0 then Alcotest.failf "shard %d received no keys" i)
    used;
  Alcotest.(check (option string)) "get" (Some (value 42)) (Sd.get db (key 42));
  Alcotest.(check bool) "delete" true (Sd.delete db (key 42));
  Alcotest.(check (option string)) "gone" None (Sd.get db (key 42));
  Alcotest.(check int) "count after delete" 99 (Sd.count db);
  let fwd = ref [] and rev = ref [] in
  Sd.iter db (fun k v -> fwd := (k, v) :: !fwd);
  Sd.iter_reverse db (fun k v -> rev := (k, v) :: !rev);
  Alcotest.(check int) "iter complete" 99 (List.length !fwd);
  Alcotest.(check bool) "iter orders agree" true
    (List.sort compare !fwd = List.sort compare !rev);
  check_ok "basics" db

let test_invalid_args () =
  (* satellite fix: non-positive initial_buckets is a typed error in both
     stores, and an empty shard array is one too *)
  let check_invalid name f =
    match f () with
    | _ -> Alcotest.failf "%s: accepted invalid argument" name
    | exception Kv.Romulus_db.Invalid_buckets b ->
      Alcotest.(check bool) (name ^ " reports the bad value") true (b <= 0)
  in
  check_invalid "romulus_db zero buckets" (fun () ->
      Db.open_db ~initial_buckets:0 (region ()));
  check_invalid "romulus_db negative buckets" (fun () ->
      Db.open_db ~initial_buckets:(-3) (region ()));
  check_invalid "sharded zero buckets" (fun () ->
      Sd.open_db ~initial_buckets:0 (regions 2));
  check_invalid "sharded negative buckets" (fun () ->
      Sd.open_db ~initial_buckets:(-1) (regions 2));
  (match Sd.open_db [||] with
   | _ -> Alcotest.fail "accepted an empty shard array"
   | exception Kv.Sharded_db.Invalid_shards 0 -> ());
  (* the boundary value works *)
  let db = Sd.open_db ~initial_buckets:1 (regions 2) in
  Sd.put db "k" "v";
  Alcotest.(check (option string)) "buckets=1 usable" (Some "v")
    (Sd.get db "k")

(* ---- participant masks ---- *)

(* first key of the form "mNNN" routing to [shard] *)
let key_on db shard =
  let rec find i =
    let k = Printf.sprintf "m%03d" i in
    if Sd.shard_of_key db k = shard then k else find (i + 1)
  in
  find 0

(* A batch over shards {2,3} parks two mirrors and a flip under lazy
   CLEAR.  Bit [i] per shard gives the mask 0b1100: each mirror carries
   its own bit, the coordinator (shard 2) is the lowest set bit, and
   [check] verifies exactly that on every hooked record. *)
let test_mask_names_participants () =
  let _, db = open_sharded () in
  let k2 = key_on db 2 and k3 = key_on db 3 in
  Sd.write_batch db (fun b ->
      Sd.put b k2 "two";
      Sd.put b k3 "three");
  Alcotest.(check int) "two mirrors and a flip parked" 3
    (Sd.pending_intents db);
  check_ok "parked {2,3} batch" db;
  Alcotest.(check (option string)) "applied on 2" (Some "two") (Sd.get db k2);
  Alcotest.(check (option string)) "applied on 3" (Some "three")
    (Sd.get db k3)

(* the mask is one int: 64 shards are refused before any region is
   formatted, and a split may not grow a store past 63 *)
let test_too_many_shards () =
  let untouched r =
    let img = R.persistent_snapshot r in
    String.equal img (String.make (String.length img) '\000')
  in
  let rs = regions ~size:(1 lsl 12) 64 in
  (match Sd.open_db rs with
   | _ -> Alcotest.fail "accepted 64 shards"
   | exception Kv.Sharded_db.Invalid_shards 64 -> ());
  Alcotest.(check bool) "no region written before the refusal" true
    (Array.for_all untouched rs);
  (match Sd.open_from_files ~shards:64 "no-such-snapshot-family" with
   | _ -> Alcotest.fail "open_from_files accepted 64 shards"
   | exception Kv.Sharded_db.Invalid_shards 64 -> ());
  let db = Sd.open_db ~initial_buckets:1 (regions ~size:(1 lsl 16) 63) in
  let spare = region ~size:(1 lsl 12) () in
  (match Sd.split_shard db ~source:0 spare with
   | _ -> Alcotest.fail "split grew the store to 64 shards"
   | exception Kv.Sharded_db.Invalid_shards 64 -> ());
  Alcotest.(check int) "still 63 shards" 63 (Sd.shards db);
  Alcotest.(check bool) "split target untouched" true (untouched spare)

(* ---- golden persistent image ---- *)

(* One fixed operation sequence over 4 shards that runs every path of
   the cross-shard commit protocol: single-key puts, overwrites and
   deletes; cross-shard batches over several participant sets; a batch
   above [chunk_bytes] whose undo images spill; a runtime abort with a
   racing single-key put issued from inside the window; a trapped crash
   resolved under Drop_all and the reopen's reconciliation; an explicit
   lazy-CLEAR drain; and one group-commit window merging three cross
   batches into one intent.  The digest of every region's persistent
   image is pinned per PTM, so a change to the protocol code that moves
   a single persisted byte fails here. *)
module Golden (P : Kv.Sharded_db.SHARD_PTM) = struct
  module S = Kv.Sharded_db.Make (P)
  module G = Kv.Group_commit.Make (P)

  (* the [n]-th key of the form "gNNN" routing to [shard] *)
  let on db shard n =
    let rec find i n =
      let k = Printf.sprintf "g%03d" i in
      if S.shard_of_key db k <> shard then find (i + 1) n
      else if n = 0 then k
      else find (i + 1) (n - 1)
    in
    find 0 n

  let batch db kvs =
    S.write_batch db (fun b -> List.iter (fun (k, v) -> S.put b k v) kvs)

  let digest () =
    let rs = regions 4 in
    let reopen () =
      S.open_db ~initial_buckets:8 ~chunk_bytes:512 ~spill_threshold:256 rs
    in
    let db = reopen () in
    for i = 0 to 31 do
      S.put db (key i) (value i)
    done;
    S.put db (key 3) "value-9999";
    S.put db (key 4) "a longer overwrite";
    ignore (S.delete db (key 5) : bool);
    List.iter
      (fun parts ->
        batch db
          (List.map (fun s -> (on db s 0, Printf.sprintf "b%d" s)) parts))
      [ [ 0; 1 ]; [ 2; 3 ]; [ 1; 2; 3 ]; [ 0; 1; 2; 3 ] ];
    let bigs = [ on db 0 1; on db 1 1 ] in
    List.iter (fun k -> S.put db k (String.make 300 'o')) bigs;
    batch db (List.map (fun k -> (k, String.make 300 'n')) bigs);
    if Sc.get (S.counters db) Chunks_spilled = 0 then
      Alcotest.fail "golden: large batch spilled no undo image";
    let k2 = on db 2 1 and k3 = on db 3 1 in
    Fault.arm ~skip:1 "sharded.d.mirror_applied" (fun () ->
        S.put db k2 "raced";
        raise (Fault.Injected "golden"));
    (match batch db [ (k2, "x2"); (k3, "x3") ] with
     | () -> Alcotest.fail "golden: runtime abort did not fire"
     | exception Romulus.Engine.Tx_aborted _ -> ());
    Fault.disarm ();
    must_fire "golden: trap" rs (D.Trap (2, 40)) (fun () ->
        batch db [ (on db 0 2, "t0"); (on db 2 2, "t2") ]);
    crash_all rs R.Drop_all;
    let db = reopen () in
    batch db [ (on db 1 2, "p1"); (on db 3 2, "p3") ];
    S.flush_clears db;
    let fe = G.attach ~window:4 ~ack:Kv.Group_commit.Async db in
    List.iter
      (fun j ->
        G.write_batch fe (fun b ->
            S.put b (on db 0 (3 + j)) (Printf.sprintf "ga%d" j);
            S.put b (on db 3 (3 + j)) (Printf.sprintf "gb%d" j)))
      [ 0; 1; 2 ];
    G.flush fe;
    if Kv.Group_commit.Counters.get (G.counters fe) Merged_intents < 2 then
      Alcotest.fail "golden: group window did not merge its batches";
    (match S.check db with
     | Ok () -> ()
     | Error e -> Alcotest.failf "golden: %s" e);
    Golden_image.digest rs
end

let golden_romL = "229070dfe3563555c2a182cd1a4ffdc3"
let golden_rom = "2f4172a41cefb6f662eec496bb3fb734"

let test_golden_image_romL () =
  with_disarm @@ fun () ->
  let module L = Golden (Romulus.Logged) in
  Alcotest.(check string) "romL persistent image" golden_romL (L.digest ())

let test_golden_image_rom () =
  with_disarm @@ fun () ->
  let module B = Golden (Romulus.Basic) in
  Alcotest.(check string) "rom persistent image" golden_rom (B.digest ())

(* ---- shards=1: bit-for-bit Romulus_db equivalence ---- *)

(* The same operation script drives a plain RomulusDB and a 1-shard
   sharded store over separate fresh regions; the persistent images must
   be byte-identical at every synchronisation point.  With one shard no
   batch can be cross-shard, so the intent machinery must never touch
   the region. *)
let test_shard1_bitwise_equivalence () =
  let ra = region () and rb = region () in
  let a = Db.open_db ~initial_buckets:8 ra in
  let b = Sd.open_db ~initial_buckets:8 [| rb |] in
  let sync what =
    Alcotest.(check bool)
      (what ^ ": persistent images identical") true
      (String.equal (R.persistent_snapshot ra) (R.persistent_snapshot rb))
  in
  sync "after open";
  for i = 0 to 30 do
    Db.put a (key i) (value i);
    Sd.put b (key i) (value i)
  done;
  sync "after puts";
  ignore (Db.delete a (key 7));
  ignore (Sd.delete b (key 7));
  Db.put a (key 3) "overwrite";
  Sd.put b (key 3) "overwrite";
  sync "after delete+overwrite";
  (* a write batch with read-your-writes inside *)
  let saw_a = ref [] and saw_b = ref [] in
  Db.write_batch a (fun d ->
      Db.put d "wb1" "x";
      saw_a := [ Db.get d "wb1"; Db.get d (key 5) ];
      ignore (Db.delete d (key 5));
      Db.put d "wb2" "y");
  Sd.write_batch b (fun d ->
      Sd.put d "wb1" "x";
      saw_b := [ Sd.get d "wb1"; Sd.get d (key 5) ];
      ignore (Sd.delete d (key 5));
      Sd.put d "wb2" "y");
  Alcotest.(check (list (option string)))
    "batch read-your-writes agree" !saw_a !saw_b;
  sync "after write batch";
  (* a raising batch aborts with the same typed error and no effects *)
  let abort_of f =
    match f () with
    | () -> Alcotest.fail "raising batch did not raise"
    | exception Romulus.Engine.Tx_aborted { cause = Failure m; _ } -> m
    | exception e -> Alcotest.failf "wrong abort: %s" (Printexc.to_string e)
  in
  let ma =
    abort_of (fun () ->
        Db.write_batch a (fun d ->
            Db.put d "doomed" "1";
            failwith "poison"))
  in
  let mb =
    abort_of (fun () ->
        Sd.write_batch b (fun d ->
            Sd.put d "doomed" "1";
            failwith "poison"))
  in
  Alcotest.(check string) "same abort cause" ma mb;
  Alcotest.(check (option string)) "abort left nothing (db)" None
    (Db.get a "doomed");
  Alcotest.(check (option string)) "abort left nothing (sharded)" None
    (Sd.get b "doomed");
  (* Immediately after the aborted batch the images differ in exactly the
     lazily-published state word: Romulus_db ran begin+abort (forcing a
     durable IDL), the sharded store never started an engine transaction.
     The divergence is transient — the next crash/recovery converges both
     sides, which the sync below witnesses. *)
  (* a crash replays identically *)
  R.crash ra R.Drop_all;
  R.crash rb R.Drop_all;
  let a = Db.open_db ra and b = Sd.open_db [| rb |] in
  sync "after crash+reopen";
  Alcotest.(check int) "same count" (Db.count a) (Sd.count b);
  Db.iter a (fun k v ->
      if Sd.get b k <> Some v then Alcotest.failf "diverged at %s" k)

(* ---- abort semantics (shards=4) ---- *)

let test_raising_closure_discards_buffer () =
  let _, db = open_sharded () in
  seed db 4;
  (match
     Sd.write_batch db (fun b ->
         Sd.put b "x" "1";
         raise Exit)
   with
   | () -> Alcotest.fail "no raise"
   | exception Romulus.Engine.Tx_aborted { cause = Exit; _ } -> ());
  Alcotest.(check (option string)) "buffered op discarded" None
    (Sd.get db "x");
  check_ok "raising closure" db

(* ---- crash sweeps: every instruction boundary, all 4 policies ---- *)

(* Sweep a trap over every instruction of every shard's region while a
   cross-shard batch runs, under each crash policy; after the crash, a
   reopened store must show the batch all-or-nothing and pass its
   checks.  This is the KV-level analogue of the PTM suite's
   crash_at_every_point. *)
let crash_sweep_policy policy =
  let fresh () =
    let rs, db = open_sharded () in
    seed db 12;
    (rs, (rs, db))
  in
  List.fold_left ( + ) 0
    (List.init 4 (fun region ->
         D.sweep ~name:"crash sweep" ~first:1 ~region
           ~policy:(fun _ -> policy) ~fresh
           ~op:(fun (_, db) -> run_batch db)
           (fun _ (rs, _) _ ->
             let db = Sd.open_db ~initial_buckets:8 rs in
             ignore (assert_all_or_nothing "crash sweep" db : bool))))

let test_crash_sweep_drop_all () =
  let n = crash_sweep_policy R.Drop_all in
  Alcotest.(check bool) "sweep crossed the batch" true (n > 50)

let test_crash_sweep_keep_all () =
  ignore (crash_sweep_policy R.Keep_all : int)

let test_crash_sweep_random_subset () =
  ignore (crash_sweep_policy (R.Random_subset 41) : int)

let test_crash_sweep_torn_words () =
  ignore (crash_sweep_policy (R.Torn_words 17) : int)

(* ---- the presumed-abort protocol's windows ---- *)

(* participant shards of [batch_ops], ascending; the coordinator is the
   minimum (first) participant *)
let d_participants db =
  List.sort_uniq compare
    (List.map (fun (k, _) -> Sd.shard_of_key db k) batch_ops)

let test_d_runtime_abort () =
  with_disarm @@ fun () ->
  let _, db = open_sharded () in
  seed db 12;
  (* software fault after the first mirror+apply transaction: the batch
     must roll back from its own mirrors and leave no record hooked *)
  Fault.arm "sharded.d.mirror_applied" (fun () ->
      raise (Fault.Injected "sharded.d.mirror_applied"));
  (match run_batch db with
   | () -> Alcotest.fail "injected fault did not surface"
   | exception Romulus.Engine.Tx_aborted { cause = Fault.Injected _; _ } -> ()
   | exception e ->
     Alcotest.failf "expected Tx_aborted(Injected), got %s"
       (Printexc.to_string e));
  let applied = assert_all_or_nothing "d runtime abort" db in
  Alcotest.(check bool) "rolled back, not applied" false applied;
  Alcotest.(check int) "no record left hooked" 0 (Sd.pending_intents db);
  Alcotest.(check bool) "prepares counted" true
    (counted db Intent_prepares > 0);
  Alcotest.(check bool) "rollbacks counted" true (counted db Rolled_back > 0);
  (* recovery afterwards finds nothing to reconcile *)
  let before = Sc.snapshot (Sd.counters db) in
  Sd.recover ~parallel:false db;
  let d = Sc.since ~now:(Sd.counters db) ~past:before in
  Alcotest.(check int) "recovery rolled nothing back" 0 (Sc.get d Rolled_back);
  Alcotest.(check int) "recovery rolled nothing forward" 0
    (Sc.get d Rolled_forward);
  Alcotest.(check bool) "still rolled back" false
    (assert_all_or_nothing "after recover" db);
  run_batch db;
  Alcotest.(check bool) "batch applies cleanly afterwards" true
    (assert_all_or_nothing "clean retry" db)

(* lazy CLEAR: a committed batch parks its mirrors and flip; the next
   batch over the same shards reclaims all of them piggybacked on its
   own protocol transactions *)
let test_deferred_clear_reclamation () =
  let _, db = open_sharded () in
  seed db 12;
  let footprint = List.length (d_participants db) + 1 in
  run_batch db;
  Alcotest.(check int) "committed batch parks its records" footprint
    (Sd.pending_intents db);
  run_batch db;
  (* batch 1's mirrors rode batch 2's PREPAREs, its flip batch 2's flip
     transaction: only batch 2's own records remain *)
  Alcotest.(check int) "previous batch fully reclaimed" footprint
    (Sd.pending_intents db);
  Alcotest.(check bool) "lazy clears counted" true
    (counted db Deferred_clears >= footprint);
  Alcotest.(check bool) "batch applied" true
    (assert_all_or_nothing "lazy clear" db);
  (* recovery reclaims the rest without touching data *)
  Sd.recover ~parallel:false db;
  Alcotest.(check int) "recovery drains the parked records" 0
    (Sd.pending_intents db);
  Alcotest.(check bool) "data untouched" true
    (assert_all_or_nothing "after drain" db)

(* An image holding a record of the removed shard-0 intent protocol
   (shard 0's last root slot set) is refused at open with the typed
   shard-0 failure, before anything is reconciled. *)
let test_legacy_intent_refused () =
  let rs, db = open_sharded () in
  seed db 12;
  let p = Romulus.Logged.open_region rs.(0) in
  Romulus.Logged.update_tx p (fun () ->
      let o = Romulus.Logged.alloc p 16 in
      Romulus.Logged.store p o 1;
      Romulus.Logged.store p (o + 8) 0;
      Romulus.Logged.set_root p (Romulus.Ptm_intf.root_slots - 1) o);
  crash_all rs R.Drop_all;
  (match Sd.open_db ~initial_buckets:8 rs with
   | _ -> Alcotest.fail "reopened over a legacy shard-0 intent"
   | exception
       Kv.Sharded_db.Shard_open_failed
         { shard = 0; cause = Romulus.Engine.Recovery_error msg } ->
     Alcotest.(check bool) "names the legacy intent" true
       (String.starts_with ~prefix:"sharded: legacy shard-0 batch intent" msg));
  (* the refusal wrote nothing: with the slot cleared by hand the store
     opens again with its data intact *)
  let p = Romulus.Logged.open_region rs.(0) in
  Romulus.Logged.update_tx p (fun () ->
      Romulus.Logged.set_root p (Romulus.Ptm_intf.root_slots - 1) 0);
  let db = Sd.open_db ~initial_buckets:8 rs in
  for i = 0 to 11 do
    Alcotest.(check (option string)) "seeded key intact" (Some (value i))
      (Sd.get db (key i))
  done

(* ---- hostile records ----

   Each row corrupts one field of one sharded record in a seeded image,
   through one committed transaction on that shard, so the twins and the
   media CRCs agree and only the record is wrong.  The store must then
   open with [check] returning [Ok], or refuse the image with a typed
   error naming the record — never an untyped exception, never a hang. *)
module Rec = Kv.Shard_records.Make (Romulus.Logged)
module L = Romulus.Logged

(* Four shards holding every record kind: a pinned routing table,
   mirrors and a flip parked by the lazy CLEAR, and — from a split of
   shard 1 onto a fifth region, killed after its first move batch — a
   migration intent and a cursor.  Crashed, not reopened. *)
let hostile_image () =
  with_disarm @@ fun () ->
  let rs, db = open_sharded () in
  seed db 64;
  run_batch db;
  let rs = Array.append rs [| region () |] in
  must_fire "split kill" rs (D.Kill ("sharded.migrate.batch_moved", 0, Some 0))
    (fun () -> Sd.split_shard db ~source:1 rs.(4));
  crash_all rs R.Drop_all;
  rs

(* one committed transaction on the first shard whose root [slot] is
   set: [f p off] with [off] that root *)
let corrupt rs slot f =
  let rec go i =
    if i = Array.length rs then
      Alcotest.failf "no shard sets root slot %d" slot;
    let p = L.open_region rs.(i) in
    match L.read_tx p (fun () -> L.get_root p slot) with
    | 0 -> go (i + 1)
    | off -> L.update_tx p (fun () -> f p off)
  in
  go 0;
  crash_all rs R.Drop_all

let contains s sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

let beyond rs = R.size rs.(0) + 4096

(* [run_batch] over a 4-shard store seeded with 12 keys, killed after
   its last mirror is applied: every participant holds a sealed mirror
   and the coordinator no flip, a presumed abort.  Crashed, not
   reopened. *)
let preflip_image () =
  with_disarm @@ fun () ->
  let rs, db = open_sharded () in
  seed db 12;
  let parts = d_participants db in
  let last, coord = (List.length parts - 1, List.hd parts) in
  must_fire "kill" rs
    (D.Kill ("sharded.d.mirror_applied", last, Some coord))
    (fun () -> run_batch db);
  crash_all rs R.Keep_all;
  rs

module Lr_sd = Kv.Sharded_db.Make (Romulus.Lr)

(* A crashed 2-shard RomulusLR store whose shard 0 has its route root
   [back] bytes short of the region's end: an offset into the back twin,
   which a back reader would carry past the region. *)
let lr_route_root back () =
  let rs = regions 2 in
  Lr_sd.put (Lr_sd.open_db ~initial_buckets:8 rs) (key 0) (value 0);
  crash_all rs R.Drop_all;
  let p = Romulus.Lr.open_region rs.(0) in
  Romulus.Lr.update_tx p (fun () ->
      Romulus.Lr.set_root p Rec.route_slot (R.size rs.(0) - back));
  crash_all rs R.Drop_all;
  rs

(* open a damaged image, returning its [check] *)
let open_logged rs =
  let db = Sd.open_db ~initial_buckets:8 rs in
  fun () -> Sd.check db

let open_lr rs =
  let db = Lr_sd.open_db ~initial_buckets:8 rs in
  fun () -> Lr_sd.check db

let hostile_rows =
  let row ?(image = hostile_image) ?(open_db = open_logged) name record
      damage =
    (name, record, image, open_db, damage)
  in
  [ row "route root past the region" "routing table" (fun rs ->
        corrupt rs Rec.route_slot (fun p _ ->
            L.set_root p Rec.route_slot (beyond rs)));
    row "mirror chunk head past the region" "mirror chunk" (fun rs ->
        corrupt rs Rec.mirror_slot (fun p m ->
            L.store p (m + Rec.Mirror.m_chunks) (beyond rs)));
    row "self-linked mirror list" "mirror" (fun rs ->
        corrupt rs Rec.mirror_slot (fun p m -> L.store p m m));
    row "self-linked flip list" "flip" (fun rs ->
        corrupt rs Rec.flip_slot (fun p f -> L.store p f f));
    row "health length past the region" "health"
      (* on shard 0 (the routing table's shard): a health record is
         planted, then its length broken *)
      (fun rs ->
        corrupt rs Rec.route_slot (fun p _ ->
            Rec.Health.write p (Array.make 4 Kv.Shard_records.Healthy);
            L.store p (L.get_root p Rec.health_slot) (beyond rs)));
    row "migration intent slot count" "migration intent"
      (* the slot count is the intent's fifth word *)
      (fun rs ->
        corrupt rs Rec.mig_slot (fun p o -> L.store p (o + 32) (1 lsl 40)));
    row "migration cursor length" "migration cursor" (fun rs ->
        corrupt rs Rec.cursor_slot (fun p o ->
            L.store p (o + Rec.c_len) (1 lsl 40)));
    (* rolled back, not reclaimed: the presumed abort reads the chain *)
    row ~image:preflip_image "pre-flip mirror chunk head past the region"
      "mirror chunk" (fun rs ->
        corrupt rs Rec.mirror_slot (fun p m ->
            L.store p (m + Rec.Mirror.m_chunks) (beyond rs))) ]
  @ List.map
      (fun back ->
        row ~image:(lr_route_root back) ~open_db:open_lr
          (Printf.sprintf "romLR route root %d B short of the region's end"
             back)
          "routing table" ignore)
      [ 32; 4096; 100_000 ]

let test_hostile_records () =
  List.iter
    (fun (row, record, image, open_db, damage) ->
      let rs = image () in
      damage rs;
      let named msg =
        if not (contains msg ("sharded " ^ record ^ " record")) then
          Alcotest.failf "%s: refusal does not name the %s record: %s" row
            record msg
      in
      match open_db rs with
      | check -> (
        match check () with
        | Ok () -> ()
        | Error e -> Alcotest.failf "%s: opened, but check fails: %s" row e)
      | exception
          ( Romulus.Engine.Recovery_error msg
          | Kv.Sharded_db.Shard_open_failed
              { cause = Romulus.Engine.Recovery_error msg; _ } ) ->
        named msg
      | exception e ->
        Alcotest.failf "%s: untyped %s" row (Printexc.to_string e))
    hostile_rows

(* the access counts of [f ()] summed over the shards [rs], and its
   result *)
let access_counts rs f =
  let past = Array.map (fun r -> Pmem.Stats.snapshot (R.stats r)) rs in
  let x = f () in
  let st =
    Pmem.Stats.aggregate
      (List.mapi
         (fun i r -> Pmem.Stats.since ~now:(R.stats r) ~past:past.(i))
         (Array.to_list rs))
  in
  ( Printf.sprintf "loads=%d stores=%d pwbs=%d pfences=%d" st.Pmem.Stats.loads
      st.stores st.pwbs st.pfences,
    x )

(* Reopening a pre-flip crash image (every mirror hooked, no flip)
   resolves each mirror by presumed abort.  Pinned: the access counts of
   the reopen, summed over the shards (loads 398 -> 392 when the blob
   codec's [equal_at] stopped reloading the length word it had read). *)
let test_preflip_reopen_counts () =
  let rs = preflip_image () in
  let counts, db =
    access_counts rs (fun () -> Sd.open_db ~initial_buckets:8 rs)
  in
  Alcotest.(check bool) "presumed abort" false
    (assert_all_or_nothing "pre-flip reopen" db);
  Alcotest.(check string) "reopen access counts"
    "loads=392 stores=186 pwbs=97 pfences=9" counts

(* A cross-shard batch over a seeded store captures each key's
   pre-batch image once, to size its admission charge and fill its
   mirror, and each participant's final PREPARE transaction reads the key
   again to check the image is still its value; no race, so no
   participant captures again.  Pinned: the access counts of
   [run_batch], summed over the shards (loads 307 -> 297 when the blob
   codec's [equal_at] stopped reloading the length word). *)
let test_batch_counts () =
  let rs, db = open_sharded () in
  seed db 12;
  let counts, () = access_counts rs (fun () -> run_batch db) in
  Alcotest.(check bool) "applied" true (assert_all_or_nothing "batch" db);
  Alcotest.(check string) "batch access counts"
    "loads=297 stores=192 pwbs=111 pfences=12" counts;
  Alcotest.(check int) "no capture restarted" 0
    (counted db Prepare_restarts)

(* ---- §10 regression: a single-key write racing an aborting batch ----

   The racing put durably invalidates the batch's undo image for the key
   inside its own transaction, so neither the inline rollback (runtime
   abort) nor recovery (crash) may overwrite it with the stale
   pre-image. *)

let assert_raced_rollback ?(raced = key 1) ?(won = "raced") what db =
  check_ok what db;
  Alcotest.(check (option string)) (what ^ ": racing write survives")
    (Some won) (Sd.get db raced);
  List.iter
    (fun (k, _) ->
      if k <> raced then begin
        let want =
          if k = key 1 then Some (value 1)
          else if k = key 2 then Some (value 2)
          else None
        in
        if Sd.get db k <> want then
          Alcotest.failf "%s: batch key %s not rolled back" what k
      end)
    batch_ops;
  for i = 3 to 11 do
    if Sd.get db (key i) <> Some (value i) then
      Alcotest.failf "%s: lost committed key %s" what (key i)
  done

let test_d_lost_update_runtime_abort () =
  with_disarm @@ fun () ->
  let _, db = open_sharded () in
  seed db 12;
  let nparts = List.length (d_participants db) in
  (* once every mirror is hooked (all undo images pending), overwrite
     key 1 from outside the batch, then poison the batch *)
  Fault.arm ~skip:(nparts - 1) "sharded.d.mirror_applied" (fun () ->
      Sd.put db (key 1) "raced";
      raise (Fault.Injected "raced"));
  (match run_batch db with
   | () -> Alcotest.fail "injected fault did not surface"
   | exception Romulus.Engine.Tx_aborted { cause = Fault.Injected _; _ } -> ());
  assert_raced_rollback "lost-update (runtime abort)" db;
  Alcotest.(check int) "no record left hooked" 0 (Sd.pending_intents db)

let test_d_lost_update_crash_recovery () =
  with_disarm @@ fun () ->
  let rs, db = open_sharded () in
  seed db 12;
  let nparts = List.length (d_participants db) in
  let coord = List.hd (d_participants db) in
  (* same race, but the batch dies before its flip: recovery's presumed
     abort must honor the invalidated undo entry *)
  must_fire "kill"
    ~hook:(fun () -> Sd.put db (key 1) "raced")
    rs
    (D.Kill ("sharded.d.mirror_applied", nparts - 1, Some coord))
    (fun () -> run_batch db);
  crash_all rs R.Drop_all;
  let db = Sd.open_db ~initial_buckets:8 rs in
  assert_raced_rollback "lost-update (crash recovery)" db;
  Alcotest.(check int) "mirrors reclaimed" 0 (Sd.pending_intents db)

(* The same race, one step earlier: the put lands on a later
   participant's key right after the first mirror is hooked, after the
   batch captured that key's undo image and before the participant
   applies, so it is not yet pending.  The participant's final PREPARE
   transaction finds its captured image stale and captures again, so its
   mirror records the raced value as the key's pre-image; then the batch
   fails at the last participant, by a runtime abort or a crash, and the
   rollback must restore the raced value.  With [~site] the put lands at
   that failpoint instead, before any mirror is hooked: on
   [sharded.chunk.written], inside the stream of the participant that
   owns [raced]. *)
let early_race ?(site = "sharded.d.mirror_applied") ?raced db ~fail =
  let parts = d_participants db in
  let nparts = List.length parts in
  let last = List.nth parts (nparts - 1) in
  let raced =
    match raced with
    | Some k -> k
    | None ->
      fst (List.find (fun (k, _) -> Sd.shard_of_key db k = last) batch_ops)
  in
  (* mirrors already hooked when the put lands *)
  let hooked = if site = "sharded.d.mirror_applied" then 1 else 0 in
  Fault.arm site (fun () ->
      Sd.put db raced "raced";
      Fault.arm ~skip:(nparts - 1 - hooked) "sharded.d.mirror_applied" fail);
  raced

let assert_restarted what db =
  if counted db Prepare_restarts = 0 then
    Alcotest.failf "%s: no participant captured its images again" what

let test_d_early_race_runtime_abort () =
  with_disarm @@ fun () ->
  let _, db = open_sharded () in
  seed db 12;
  let raced =
    early_race db ~fail:(fun () -> raise (Fault.Injected "raced"))
  in
  (match run_batch db with
   | () -> Alcotest.fail "injected fault did not surface"
   | exception Romulus.Engine.Tx_aborted { cause = Fault.Injected _; _ } -> ());
  assert_raced_rollback ~raced "early race (runtime abort)" db;
  assert_restarted "early race (runtime abort)" db;
  Alcotest.(check int) "no record left hooked" 0 (Sd.pending_intents db)

let test_d_early_race_crash_recovery () =
  with_disarm @@ fun () ->
  let rs, db = open_sharded () in
  seed db 12;
  let coord = List.hd (d_participants db) in
  let raced = early_race db ~fail:(fun () -> R.kill rs.(coord)) in
  (match run_batch db with
   | () -> Alcotest.fail "kill did not fire"
   | exception R.Crash_point -> ());
  crash_all rs R.Drop_all;
  let reopened = Sd.open_db ~initial_buckets:8 rs in
  assert_raced_rollback ~raced "early race (crash recovery)" reopened;
  assert_restarted "early race (crash recovery)" db;
  Alcotest.(check int) "mirrors reclaimed" 0 (Sd.pending_intents reopened)

(* The early race inside a stream: with 128-byte chunks and an 8-byte
   spill threshold, the first participant (the one owning key 1) streams
   its mirror, and the put to key 1 lands after its first chunk, before
   its final transaction. *)
let streamed_db () =
  let rs, db = open_sharded ~chunk_bytes:128 ~spill_threshold:8 () in
  seed db 12;
  if Sd.shard_of_key db (key 1) <> List.hd (d_participants db) then
    Alcotest.fail "streamed race: key 1 is not on the first participant";
  (rs, db)

let test_d_streamed_race_runtime_abort () =
  with_disarm @@ fun () ->
  let _, db = streamed_db () in
  let raced =
    early_race ~site:"sharded.chunk.written" ~raced:(key 1) db
      ~fail:(fun () -> raise (Fault.Injected "raced"))
  in
  (match run_batch db with
   | () -> Alcotest.fail "injected fault did not surface"
   | exception Romulus.Engine.Tx_aborted { cause = Fault.Injected _; _ } -> ());
  assert_raced_rollback ~raced "streamed race" db;
  assert_restarted "streamed race" db;
  Alcotest.(check int) "no record left hooked" 0 (Sd.pending_intents db)

let test_d_streamed_race_crash_recovery () =
  with_disarm @@ fun () ->
  let rs, db = streamed_db () in
  let raced =
    early_race ~site:"sharded.chunk.written" ~raced:(key 1) db
      ~fail:(fun () -> R.kill rs.(0))
  in
  (match run_batch db with
   | () -> Alcotest.fail "kill did not fire"
   | exception R.Crash_point -> ());
  crash_all rs R.Drop_all;
  let reopened = Sd.open_db ~initial_buckets:8 rs in
  assert_raced_rollback ~raced "streamed race" reopened;
  assert_restarted "streamed race" db;
  Alcotest.(check int) "mirrors reclaimed" 0 (Sd.pending_intents reopened)

(* A put that lands in every attempt's window keeps the last
   participant's captured image stale: its PREPARE captures and streams
   again a bounded number of times, then the batch fails with
   [Overloaded] naming that shard, every applied participant is rolled
   back, and the last put is the key's value.  The first put lands in
   the first participant's seal window; each fresh value is over the
   spill threshold, so every later attempt of the last participant
   streams and crosses a seal window of its own. *)
let test_d_capture_retries_bound () =
  with_disarm @@ fun () ->
  let _, db = streamed_db () in
  let parts = d_participants db in
  let last = List.nth parts (List.length parts - 1) in
  let raced, _ =
    List.find (fun (k, _) -> Sd.shard_of_key db k = last) batch_ops
  in
  let puts = ref 0 in
  let fresh () = Printf.sprintf "fresh-%04d" !puts in
  let rec race () =
    incr puts;
    Sd.put db raced (fresh ());
    Fault.arm "sharded.chunk.seal_window" race
  in
  Fault.arm "sharded.chunk.seal_window" race;
  (match run_batch db with
   | () -> Alcotest.fail "bound: batch committed over stale images"
   | exception
       Romulus.Engine.Tx_aborted
         { cause = Kv.Sharded_db.Overloaded { shard; _ }; _ } ->
     Alcotest.(check int) "Overloaded names the stale shard" last shard);
  Fault.disarm ();
  assert_raced_rollback ~raced ~won:(fresh ()) "bound" db;
  assert_restarted "bound" db;
  Alcotest.(check int) "no record left hooked" 0 (Sd.pending_intents db)

(* ---- recovery: parallel fan-out, idempotence, crashes within ---- *)

let test_parallel_recovery () =
  let rs, db = open_sharded () in
  seed db 12;
  (* leave a mid-commit wreck on one shard and mirrors hooked on others *)
  must_fire "trap" rs (D.Trap (2, 40)) (fun () -> run_batch db);
  crash_all rs (R.Random_subset 7);
  let db = Sd.open_db ~initial_buckets:8 rs in
  ignore (assert_all_or_nothing "after reopen" db : bool);
  (* recovery over an already-consistent store, parallel and sequential,
     is a no-op — run both and compare full contents *)
  let dump db =
    let l = ref [] in
    Sd.iter db (fun k v -> l := (k, v) :: !l);
    List.sort compare !l
  in
  let before = dump db in
  Sd.recover ~parallel:true db;
  Alcotest.(check bool) "parallel recover is idempotent" true
    (dump db = before);
  Sd.recover ~parallel:false db;
  Alcotest.(check bool) "sequential recover agrees" true (dump db = before);
  check_ok "parallel recovery" db

(* On the Mnemosyne-like PTM every domain of a parallel recovery takes a
   thread slot through the baseline's per-thread context.  Each slot must
   be given back when its domain exits: the pool holds 128, so a leak of
   one per shard would fail the 32nd recovery of a 4-shard store. *)
module Mne_sd = Kv.Sharded_db.Make (Baselines.Redolog)

let test_parallel_recovery_releases_slots () =
  let db = Mne_sd.open_db ~initial_buckets:8 (regions 4) in
  Mne_sd.put db "key" "value";
  for i = 1 to 60 do
    match Mne_sd.recover ~parallel:true db with
    | () -> ()
    | exception e ->
      Alcotest.failf "parallel recovery %d: %s" i (Printexc.to_string e)
  done;
  Alcotest.(check (option string)) "store intact" (Some "value")
    (Mne_sd.get db "key")

(* ---- scrub: repair-or-refuse per shard, aggregated report ---- *)

let test_scrub_repairs_shard () =
  let rs, db = open_sharded () in
  seed db 24;
  (* settle to durably-IDL (the engine publishes IDL lazily) *)
  crash_all rs R.Drop_all;
  let db = Sd.open_db ~initial_buckets:8 rs in
  let clean = Array.map R.persistent_snapshot rs in
  (* rot one line deep in shard 2's used span *)
  let spans = Sd.media_spans db in
  let base, span = List.hd spans.(2) in
  let line = (base + span - 1) / R.line_size rs.(2) in
  R.corrupt_line rs.(2) ~line;
  let rep = Sd.scrub db in
  Alcotest.(check bool) "scrub repaired the rot" true
    (rep.Romulus.Engine.repaired >= 1);
  Alcotest.(check bool) "scrub walked every shard" true
    (rep.Romulus.Engine.scrubbed > 0);
  Array.iteri
    (fun i r ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d image restored" i)
        true
        (String.equal clean.(i) (R.persistent_snapshot r)))
    rs;
  Alcotest.(check int) "second scrub finds nothing" 0
    (Sd.scrub db).Romulus.Engine.repaired;
  check_ok "scrub repair" db

(* rot the same line in both twins of one shard: no copy can vouch.
   The salvage scrub tolerates the loss under IDL — it reports the
   unrepairable line instead of refusing, and the per-shard view
   attributes the loss to the sick shard alone. *)
let test_scrub_salvages_double_fault () =
  let rs, db = open_sharded () in
  seed db 24;
  crash_all rs R.Drop_all;
  let db = Sd.open_db ~initial_buckets:8 rs in
  let spans = (Sd.media_spans db).(1) in
  (match spans with
   | (mbase, mspan) :: (bbase, _) :: _ ->
     let delta = mspan - R.line_size rs.(1) in
     R.corrupt_line rs.(1) ~line:((mbase + delta) / R.line_size rs.(1));
     R.corrupt_line rs.(1) ~seed:99 ~line:((bbase + delta) / R.line_size rs.(1))
   | _ -> Alcotest.fail "expected twin spans");
  let rep = Sd.scrub db in
  Alcotest.(check bool) "double fault reported as data loss" true
    (List.length rep.Romulus.Engine.unrepairable >= 1);
  List.iter
    (fun (i, r) ->
      let n = List.length r.Romulus.Engine.unrepairable in
      if i = 1 then
        Alcotest.(check bool) "sick shard owns the loss" true (n >= 1)
      else
        Alcotest.(check int) (Printf.sprintf "shard %d stays clean" i) 0 n)
    (Sd.scrub_shards db)

(* ---- qcheck: a racing write vs a crashed cross-shard batch ---- *)

(* Mixing a racing single-key write with a crashing cross-shard batch
   under all four policies: the coordinator is killed in a random mirror
   window (so the batch always presumed-aborts), optionally after a
   single-key put to key 1 from outside the batch.  Whatever the
   interleaving, the raced key must end up at the racing value (the put
   committed durably before the kill) and every other batch key must
   roll back; the seed keys must survive untouched. *)
let prop_d_racing_mix =
  let open QCheck in
  Test.make ~count:40
    ~name:"sharded: racing write vs crashed decentralized batch"
    (triple small_nat (int_bound 3) bool)
    (fun (skip, pol, raced) ->
      with_disarm @@ fun () ->
      let rs, db = open_sharded () in
      seed db 12;
      let parts = d_participants db in
      must_fire "kill"
        ~hook:(fun () -> if raced then Sd.put db (key 1) "raced")
        rs
        (D.Kill
           ("sharded.d.mirror_applied", skip mod List.length parts,
            Some (List.hd parts)))
        (fun () -> run_batch db);
      let policy =
        match pol with
        | 0 -> R.Drop_all
        | 1 -> R.Keep_all
        | 2 -> R.Random_subset (skip + 3)
        | _ -> R.Torn_words (skip + 13)
      in
      crash_all rs policy;
      let db = Sd.open_db ~initial_buckets:8 rs in
      check_ok "racing mix" db;
      let want_key1 = if raced then Some "raced" else Some (value 1) in
      if Sd.get db (key 1) <> want_key1 then
        Alcotest.failf "raced key diverged (raced=%b)" raced;
      List.iter
        (fun (k, _) ->
          if k <> key 1 then begin
            let want = if k = key 2 then Some (value 2) else None in
            if Sd.get db k <> want then
              Alcotest.failf "batch key %s not rolled back" k
          end)
        batch_ops;
      for i = 3 to 11 do
        if Sd.get db (key i) <> Some (value i) then
          Alcotest.failf "lost committed key %s" (key i)
      done;
      Alcotest.(check int) "reconciled clean" 0 (Sd.pending_intents db);
      true)

(* ---- snapshots ---- *)

(* [f dir] over a fresh directory, removed with its files afterwards *)
let with_temp_dir f =
  let dir = Filename.temp_file "sharded" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let test_snapshot_roundtrip () =
  with_temp_dir (fun dir ->
      let _, db = open_sharded () in
      seed db 30;
      run_batch db;
      let base = Filename.concat dir "db" in
      Sd.save_to_files db base;
      let db2 = Sd.open_from_files ~shards:4 base in
      Alcotest.(check int) "count survives" (Sd.count db) (Sd.count db2);
      Sd.iter db (fun k v ->
          if Sd.get db2 k <> Some v then
            Alcotest.failf "snapshot diverged at %s" k);
      check_ok "snapshot" db2)

(* ---- chunked mirror streaming, spills, admission control ---- *)

module Ck = Kv.Shard_records.Chunk

let big_value tag n = String.init n (fun i -> Char.chr ((tag + i) land 0xff))

(* two keys guaranteed to route to different shards of [shard_of_key] *)
let span_keys shard_of_key =
  let k0 = "span000" in
  let s0 = shard_of_key k0 in
  let rec find i =
    let k = Printf.sprintf "span%03d" i in
    if shard_of_key k <> s0 then k else find (i + 1)
  in
  (k0, find 1)

let prop_chunk_roundtrip =
  let open QCheck in
  let sizes = [| 1; 2; 3; 7; 64; 256; 4096 |] in
  Test.make ~count:200
    ~name:"chunk codec: split/join round-trips at every chunk size"
    (pair (string_of_size Gen.(0 -- 1024)) (int_bound (Array.length sizes - 1)))
    (fun (payload, si) ->
      let chunk_bytes = sizes.(si) in
      let pieces = Ck.split ~chunk_bytes payload in
      List.iter
        (fun p ->
          if String.length p > chunk_bytes then
            Test.fail_reportf "piece of %d bytes exceeds chunk_bytes %d"
              (String.length p) chunk_bytes)
        pieces;
      if payload = "" && pieces <> [ "" ] then
        Test.fail_reportf "empty payload is not one empty piece";
      if String.concat "" pieces <> payload then
        Test.fail_reportf "pieces lost bytes";
      match
        Ck.join ~expect_len:(String.length payload)
          (List.map (fun p -> (p, Ck.crc p)) pieces)
      with
      | Ok p -> String.equal p payload
      | Error e -> Test.fail_reportf "join rejected a clean chain: %s" e)

let test_chunk_chain_rejections () =
  let payload = String.init 1000 (fun i -> Char.chr (i * 7 land 0xff)) in
  let plen = String.length payload in
  let chain () =
    List.map (fun p -> (p, Ck.crc p)) (Ck.split ~chunk_bytes:64 payload)
  in
  let expect_reject what pieces =
    match Ck.join ~expect_len:plen pieces with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: corrupt chain accepted" what
  in
  (match Ck.join ~expect_len:plen (chain ()) with
   | Ok p -> Alcotest.(check string) "clean chain reassembles" payload p
   | Error e -> Alcotest.failf "clean chain rejected: %s" e);
  expect_reject "missing head chunk" (List.tl (chain ()));
  expect_reject "truncated tail"
    (List.filteri (fun i _ -> i < 15) (chain ()));
  expect_reject "flipped CRC word"
    (match chain () with
     | (p, c) :: rest -> (p, c lxor 1) :: rest
     | [] -> assert false);
  expect_reject "corrupted payload byte"
    (match chain () with
     | (p, c) :: rest ->
       (String.map (fun ch -> Char.chr (Char.code ch lxor 0x40)) p, c) :: rest
     | [] -> assert false);
  expect_reject "over-long chain" (chain () @ [ ("extra", Ck.crc "extra") ]);
  (match Ck.join ~expect_len:(plen - 1) (chain ()) with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "declared-length mismatch accepted");
  match Ck.split ~chunk_bytes:0 payload with
  | _ -> Alcotest.fail "chunk_bytes = 0 accepted"
  | exception Invalid_argument _ -> ()

(* six keys whose 700-byte pre-images force both streaming (payload >
   chunk_bytes) and spilling (undo image > spill_threshold) at the
   256/128 test configuration *)
let big_keys = List.init 6 (fun i -> Printf.sprintf "big%02d" i)

let seed_big db = List.iter (fun k -> Sd.put db k (big_value 3 700)) big_keys

let overwrite_big_batch db =
  Sd.write_batch db (fun b ->
      List.iter (fun k -> Sd.put b k (big_value 9 900)) big_keys)

let big_participants db =
  List.sort_uniq compare (List.map (Sd.shard_of_key db) big_keys)

let test_chunked_batch_commits () =
  let _, db = open_sharded ~chunk_bytes:256 ~spill_threshold:128 () in
  seed db 12;
  seed_big db;
  let parts = big_participants db in
  Alcotest.(check bool) "big keys span shards" true (List.length parts >= 2);
  overwrite_big_batch db;
  List.iter
    (fun k ->
      Alcotest.(check (option string)) k (Some (big_value 9 900))
        (Sd.get db k))
    big_keys;
  Alcotest.(check bool) "payloads streamed as multiple chunks" true
    (counted db Chunks_written > List.length parts);
  Alcotest.(check bool) "every oversized undo image spilled" true
    (counted db Chunks_spilled >= List.length big_keys);
  check_ok "chunked batch" db;
  (* chains, spills, mirrors and the flip are all reclaimable *)
  Sd.flush_clears db;
  Alcotest.(check int) "records reclaimed" 0 (Sd.pending_intents db);
  for i = 0 to 11 do
    if Sd.get db (key i) <> Some (value i) then
      Alcotest.failf "lost committed key %s" (key i)
  done

(* a racing single-key write invalidates an undo entry that lives inside
   a CRC-protected chunk: the invalidation must refresh the chunk's CRC
   or the rollback's chain read would reject its own mirror *)
let test_chunked_racing_invalidation () =
  with_disarm @@ fun () ->
  let _, db = open_sharded ~chunk_bytes:256 ~spill_threshold:128 () in
  seed db 12;
  seed_big db;
  let parts = big_participants db in
  let raced = List.hd big_keys in
  Fault.arm ~skip:(List.length parts - 1) "sharded.d.mirror_applied"
    (fun () ->
      Sd.put db raced "raced";
      raise (Fault.Injected "raced"));
  (match overwrite_big_batch db with
   | () -> Alcotest.fail "injected fault did not surface"
   | exception Romulus.Engine.Tx_aborted { cause = Fault.Injected _; _ } -> ());
  Alcotest.(check (option string)) "racing write survives the rollback"
    (Some "raced") (Sd.get db raced);
  List.iter
    (fun k ->
      if k <> raced && Sd.get db k <> Some (big_value 3 700) then
        Alcotest.failf "%s not restored from its spilled image" k)
    big_keys;
  check_ok "chunked racing invalidation" db;
  Alcotest.(check int) "no record left hooked" 0 (Sd.pending_intents db)

let test_admission_overload_immediate () =
  let _, db = open_sharded ~admission_budget:256 () in
  seed db 12;
  let ka, kb = span_keys (Sd.shard_of_key db) in
  (* a batch whose charge alone exceeds the budget is refused before any
     persistent effect, with the typed error raised raw *)
  (match
     Sd.write_batch db (fun b ->
         Sd.put b ka (big_value 1 400);
         Sd.put b kb (big_value 1 400))
   with
   | () -> Alcotest.fail "over-budget batch admitted"
   | exception Kv.Sharded_db.Overloaded { in_flight; budget; _ } ->
     Alcotest.(check int) "budget reported" 256 budget;
     Alcotest.(check int) "shard was idle" 0 in_flight
   | exception e ->
     Alcotest.failf "expected Overloaded, got %s" (Printexc.to_string e));
  Alcotest.(check (option string)) "nothing applied" None (Sd.get db ka);
  Alcotest.(check int) "nothing hooked" 0 (Sd.pending_intents db);
  Alcotest.(check bool) "rejection counted" true
    (counted db Overload_rejections > 0);
  (* a batch under the budget is unaffected *)
  run_batch db;
  Alcotest.(check bool) "small batch commits" true
    (assert_all_or_nothing "post-overload" db);
  check_ok "overload" db

let test_admission_overload_concurrent () =
  with_disarm @@ fun () ->
  let _, db = open_sharded ~admission_budget:2048 () in
  seed db 12;
  let ka, kb = span_keys (Sd.shard_of_key db) in
  let inner = ref None in
  (* while the outer batch holds ~650 in-flight bytes per shard, a
     second batch needing ~1650 more must be refused after its bounded
     backoff — typed Overloaded, never Out_of_memory *)
  Fault.arm "sharded.d.mirror_applied" (fun () ->
      (match
         Sd.write_batch db (fun b ->
             Sd.put b ka (big_value 2 1600);
             Sd.put b kb (big_value 2 1600))
       with
       | () -> Alcotest.fail "inner batch admitted over the budget"
       | exception Kv.Sharded_db.Overloaded { in_flight; budget; _ } ->
         inner := Some (in_flight, budget));
      raise (Fault.Injected "after inner"));
  (match
     Sd.write_batch db (fun b ->
         Sd.put b ka (big_value 1 600);
         Sd.put b kb (big_value 1 600))
   with
   | () -> Alcotest.fail "outer batch survived the injected fault"
   | exception Romulus.Engine.Tx_aborted { cause = Fault.Injected _; _ } -> ());
  (match !inner with
   | None -> Alcotest.fail "inner batch never ran"
   | Some (in_flight, budget) ->
     Alcotest.(check int) "budget reported" 2048 budget;
     Alcotest.(check bool) "outer charge visible to the inner batch" true
       (in_flight > 0));
  Alcotest.(check bool) "rejection counted" true
    (counted db Overload_rejections > 0);
  (* the aborted outer batch released its charge: the big batch fits now *)
  Sd.write_batch db (fun b ->
      Sd.put b ka (big_value 2 1600);
      Sd.put b kb (big_value 2 1600));
  Alcotest.(check (option string)) "charge released after the abort"
    (Some (big_value 2 1600)) (Sd.get db ka);
  check_ok "concurrent overload" db

(* Two identical stores whose arenas are filled and then fragmented
   (every other key freed): plenty of total free space, no large
   contiguous run.  A monolithic mirror (huge chunk_bytes) needs one
   contiguous allocation for the whole payload and dies with the
   allocator's typed Out_of_memory; bounded chunks drop into the freed
   bins and the same batch commits. *)
let test_chunking_survives_fragmentation () =
  let fragmented chunk_bytes =
    let rs = regions ~size:(1 lsl 18) 2 in
    let db = Sd.open_db ~initial_buckets:256 ~chunk_bytes rs in
    let filled = ref [] in
    let try_put k v =
      match Sd.put db k v with
      | () -> true
      | exception Romulus.Engine.Tx_aborted
          { cause = Palloc.Out_of_memory _; _ } ->
        false
    in
    (* fill with 2 KB values until the first shard's bump frontier is
       exhausted, then keep trying so the other shard fills too *)
    (try
       for i = 0 to 4096 do
         let k = Printf.sprintf "frag%04d" i in
         Sd.put db k (big_value 4 2048);
         filled := k :: !filled
       done
     with Romulus.Engine.Tx_aborted { cause = Palloc.Out_of_memory _; _ } ->
       ());
    for i = 0 to 95 do
      let k = Printf.sprintf "fragx%03d" i in
      if try_put k (big_value 4 2048) then filled := k :: !filled
    done;
    (* pack the remaining slack with ever smaller values: no shard keeps
       a usable contiguous run at its frontier *)
    List.iter
      (fun size ->
        for i = 0 to 95 do
          ignore
            (try_put (Printf.sprintf "pack%d-%03d" size i) (big_value 4 size)
              : bool)
        done)
      [ 512; 128; 32 ];
    if List.length !filled < 16 then
      Alcotest.fail "fragmentation seed too small";
    List.iteri
      (fun i k -> if i mod 2 = 0 then ignore (Sd.delete db k : bool))
      !filled;
    db
  in
  let batch db =
    Sd.write_batch db (fun b ->
        for i = 0 to 11 do
          Sd.put b (Printf.sprintf "post%02d" i) (big_value 6 2048)
        done)
  in
  let db = fragmented (1 lsl 22) in
  (match batch db with
   | () -> Alcotest.fail "monolithic mirror fit a fragmented arena"
   | exception Romulus.Engine.Tx_aborted
       { cause = Palloc.Out_of_memory _; _ } ->
     ());
  check_ok "monolithic abort left the store consistent" db;
  (* chunks comparable to the freed bins: each drops into one hole *)
  let db = fragmented 1024 in
  (match batch db with
   | () -> ()
   | exception e ->
     Alcotest.failf "chunked batch failed on the same arena: %s"
       (Printexc.to_string e));
  for i = 0 to 11 do
    let k = Printf.sprintf "post%02d" i in
    if Sd.get db k <> Some (big_value 6 2048) then
      Alcotest.failf "%s lost after the chunked commit" k
  done;
  check_ok "chunked commit on a fragmented arena" db

(* a redo-log overflow surfacing mid-PREPARE is retried with smaller
   chunks instead of reaching the caller — here injected once, so the
   first attempt aborts (and rolls back) and the retry commits *)
let test_overflow_retry_injected () =
  with_disarm @@ fun () ->
  let _, db = open_sharded () in
  seed db 12;
  Fault.arm "sharded.d.mirror_applied" (fun () ->
      raise (Romulus.Redo_log.Overflow { capacity = 42 }));
  run_batch db;
  Alcotest.(check bool) "batch committed through the retry" true
    (assert_all_or_nothing "overflow retry" db);
  Alcotest.(check int) "nothing stranded by the aborted attempt"
    (List.length (d_participants db) + 1)
    (Sd.pending_intents db)

(* the same degradation against a genuinely tight redo log: the
   single-transaction fast path exceeds the capacity, the streamed
   chunks fit *)
module TightLogged = struct
  include Romulus.Logged

  let tight_capacity = 24

  let open_salvage r =
    let t, lost = open_salvage r in
    Romulus.Engine.set_redo_capacity (engine t) tight_capacity;
    (t, lost)

  let open_region r = fst (open_salvage r)
end

module Tsd = Kv.Sharded_db.Make (TightLogged)

let test_overflow_retry_real () =
  let rs = regions 2 in
  let db = Tsd.open_db ~initial_buckets:8 rs in
  let ka, kb = span_keys (Tsd.shard_of_key db) in
  Tsd.write_batch db (fun b ->
      Tsd.put b ka (big_value 1 600);
      Tsd.put b kb (big_value 1 600));
  Alcotest.(check (option string)) "first key committed"
    (Some (big_value 1 600)) (Tsd.get db ka);
  Alcotest.(check (option string)) "second key committed"
    (Some (big_value 1 600)) (Tsd.get db kb);
  Alcotest.(check bool) "fast path overflowed and aborted" true
    ((Tsd.stats db).Pmem.Stats.tx_aborts > 0);
  Alcotest.(check bool) "payload streamed in bounded chunks" true
    (Sc.get (Tsd.counters db) Chunks_written > 2);
  (match Tsd.check db with
   | Ok () -> ()
   | Error e -> Alcotest.failf "tight redo log: %s" e);
  (* the store stays usable at the shrunken chunk size *)
  Tsd.write_batch db (fun b ->
      Tsd.put b ka "small";
      Tsd.put b kb "small");
  Alcotest.(check (option string)) "later batch fine" (Some "small")
    (Tsd.get db ka)

let test_flush_clears () =
  (* explicit flush: a committed batch parks mirrors + flip; flush_clears
     reclaims them in dedicated transactions without waiting for the
     next batch *)
  let _, db = open_sharded () in
  seed db 12;
  run_batch db;
  let footprint = List.length (d_participants db) + 1 in
  Alcotest.(check int) "committed batch parks its records" footprint
    (Sd.pending_intents db);
  Sd.flush_clears db;
  Alcotest.(check int) "explicit flush reclaims everything" 0
    (Sd.pending_intents db);
  Alcotest.(check bool) "flush transactions counted" true
    (counted db Clear_flushes >= 1);
  Alcotest.(check bool) "data intact" true
    (assert_all_or_nothing "flush_clears" db);
  (* threshold 1: every parked mirror is drained right after the commit;
     only the flip (released by the last mirror's drain, behind the
     sweep) can remain, and an explicit flush clears it too *)
  let _, db2 = open_sharded ~clear_flush_threshold:1 () in
  seed db2 12;
  run_batch db2;
  Alcotest.(check int) "threshold 1 leaves at most the flip" 1
    (Sd.pending_intents db2);
  Sd.flush_clears db2;
  Alcotest.(check int) "flip flushed" 0 (Sd.pending_intents db2);
  Alcotest.(check bool) "auto-flushes counted" true
    (counted db2 Clear_flushes
     >= List.length (d_participants db2));
  Alcotest.(check bool) "data intact after auto-flush" true
    (assert_all_or_nothing "auto flush" db2)

(* ---- elastic sharding: online split/merge with live migration ---- *)

(* every seeded key present exactly once, value intact *)
let assert_exactly_once what db n =
  check_ok what db;
  let seen = Hashtbl.create 64 in
  Sd.iter db (fun k v ->
      if Hashtbl.mem seen k then Alcotest.failf "%s: duplicate key %s" what k;
      Hashtbl.add seen k v);
  for i = 0 to n - 1 do
    match Hashtbl.find_opt seen (key i) with
    | Some v when v = value i -> ()
    | Some v -> Alcotest.failf "%s: %s has value %s" what (key i) v
    | None -> Alcotest.failf "%s: lost key %s" what (key i)
  done;
  if Sd.migration_pending db then
    Alcotest.failf "%s: migration intent still hooked" what

let test_split_basic () =
  let _, db = open_sharded ~shards:2 () in
  seed db 100;
  Alcotest.(check int) "epoch 0" 0 (Sd.epoch db);
  Alcotest.(check int) "slots" (2 * Kv.Sharded_db.slots_per_shard)
    (Sd.route_slots db);
  let target = Sd.split_shard db ~source:0 (region ()) in
  Alcotest.(check int) "target index" 2 target;
  Alcotest.(check int) "shards grew" 3 (Sd.shards db);
  Alcotest.(check int) "epoch flipped" 1 (Sd.epoch db);
  Alcotest.(check int) "count stable" 100 (Sd.count db);
  assert_exactly_once "split" db 100;
  (* the target actually owns slots and receives routes *)
  let owns = ref 0 in
  for s = 0 to Sd.route_slots db - 1 do
    if Sd.shard_of_slot db s = target then incr owns
  done;
  Alcotest.(check int) "target owns half the source's slots"
    (Kv.Sharded_db.slots_per_shard / 2) !owns;
  Alcotest.(check int) "started" 1 (counted db Migrations_started);
  Alcotest.(check int) "completed" 1 (counted db Migrations_completed);
  Alcotest.(check int) "nothing resumed" 0 (counted db Migrations_resumed);
  Alcotest.(check bool) "keys migrated" true (counted db Keys_migrated > 0);
  (* the store keeps working across the new route *)
  Sd.put db "post-split" "psv";
  Alcotest.(check (option string)) "post-split put" (Some "psv")
    (Sd.get db "post-split")

let test_merge_basic () =
  let _, db = open_sharded ~shards:2 () in
  seed db 80;
  let target = Sd.split_shard db ~source:0 (region ()) in
  Sd.merge_shards db ~source:target ~target:1;
  Alcotest.(check int) "epoch 2" 2 (Sd.epoch db);
  Alcotest.(check int) "source stays attached" 3 (Sd.shards db);
  for s = 0 to Sd.route_slots db - 1 do
    if Sd.shard_of_slot db s = target then
      Alcotest.failf "merged shard still owns slot %d" s
  done;
  assert_exactly_once "merge" db 80;
  Alcotest.(check int) "two migrations" 2 (counted db Migrations_completed);
  (* merging the last slots out of shard 0 is fine too; merging a
     slotless shard is a typed error *)
  (match Sd.merge_shards db ~source:target ~target:0 with
   | () -> Alcotest.fail "merged a slotless shard"
   | exception Invalid_argument _ -> ());
  Sd.merge_shards db ~source:1 ~target:0;
  assert_exactly_once "merge all" db 80

let test_resize_persists () =
  (* the flipped route must survive a crash-reopen cycle with no
     migration left to replay *)
  let rs, db = open_sharded ~shards:2 () in
  seed db 60;
  let r2 = region () in
  ignore (Sd.split_shard db ~source:1 r2 : int);
  let route_before =
    List.init (Sd.route_slots db) (fun s -> Sd.shard_of_slot db s)
  in
  let rs = Array.append rs [| r2 |] in
  crash_all rs R.Keep_all;
  let db = Sd.open_db ~initial_buckets:8 rs in
  Alcotest.(check int) "epoch survives" 1 (Sd.epoch db);
  Alcotest.(check (list int)) "route survives" route_before
    (List.init (Sd.route_slots db) (fun s -> Sd.shard_of_slot db s));
  Alcotest.(check int) "nothing resumed" 0 (counted db Migrations_resumed);
  assert_exactly_once "reopened" db 60

let test_resize_guards () =
  let _, db = open_sharded ~shards:2 () in
  seed db 10;
  (match Sd.split_shard db ~source:5 (region ()) with
   | _ -> Alcotest.fail "split accepted a bad source"
   | exception Invalid_argument _ -> ());
  (match Sd.merge_shards db ~source:0 ~target:0 with
   | () -> Alcotest.fail "merged a shard into itself"
   | exception Invalid_argument _ -> ());
  Sd.write_batch db (fun b ->
      Sd.put b "guard" "g";
      match Sd.split_shard b ~source:0 (region ()) with
      | _ -> Alcotest.fail "resize accepted through a batch handle"
      | exception Invalid_argument _ -> ())

(* kill at each migration failpoint, under each crash policy; recovery
   must always complete the resize (the intent is durable at every one
   of these sites) with every key exactly once *)
let test_split_crash_at_failpoints () =
  (* per site: does recovery find an intent to resume?  (After the
     reclaim the intent is unhooked, so there is nothing left to do.)
     The kill lands on the source region, which every pre-reclaim phase
     touches promptly; the reclaimed site is the last region access of
     the whole resize, so the crash is raised at the site itself. *)
  let sites =
    [ ("sharded.migrate.intent_open", true);
      ("sharded.migrate.batch_moved", true);
      ("sharded.migrate.batch_applied", true);
      ("sharded.migrate.epoch_flip", true);
      ("sharded.migrate.reclaimed", false) ]
  in
  let policies =
    [ R.Drop_all; R.Keep_all; R.Random_subset 7; R.Torn_words 13 ]
  in
  List.iter
    (fun (site, resumes) ->
      List.iteri
        (fun pi policy ->
          with_disarm @@ fun () ->
          let rs, db =
            open_sharded ~shards:2 ~chunk_bytes:Kv.Sharded_db.min_chunk_bytes
              ()
          in
          seed db 60;
          let rs = Array.append rs [| region () |] in
          must_fire (site ^ ": kill") rs
            (D.Kill (site, 0, if resumes then Some 0 else None))
            (fun () -> Sd.split_shard db ~source:0 rs.(2));
          crash_all rs policy;
          let crashed = db in
          let db = Sd.open_db ~initial_buckets:8 rs in
          let what = Printf.sprintf "%s/policy%d" site pi in
          assert_exactly_once what db 60;
          Alcotest.(check int) (what ^ " epoch") 1 (Sd.epoch db);
          Alcotest.(check int) (what ^ " resumed")
            (if resumes then 1 else 0)
            (counted db Migrations_resumed);
          (* exactly one completion ever: pre-flip crashes complete on
             resume, post-flip crashes must not flip a second time.  The
             crashed store counted its own completion, if any. *)
          Alcotest.(check int) (what ^ " completed once") 1
            (counted crashed Migrations_completed
             + counted db Migrations_completed))
        policies)
    sites

(* a single-key write racing the move stream: fired between the source
   and target transactions of the first move batch, the raced key (in a
   moving slot) must carry the racing value after the split (the same
   race followed by a kill is the migrate campaign's step (c)) *)
let test_racing_write_during_split () =
  let moving_key db target =
    let rec find i =
      let k = Printf.sprintf "race%03d" i in
      if Sd.shard_of_key db k = target then k else find (i + 1)
    in
    find 0
  in
  (* live race, no crash *)
  with_disarm (fun () ->
      let _, db = open_sharded ~shards:2 () in
      seed db 40;
      let raced = ref "" in
      let deleted = ref "" in
      let double_read = ref 0 in
      Fault.arm "sharded.migrate.batch_moved" (fun () ->
          (* during the window moving slots already route to the new
             shard (index 2): these are forwarded writes.  Pick the
             delete victim by route, not by visibility — a key of the
             in-flight batch is legitimately invisible right here (the
             cursor owns it), yet its forwarded delete must still win
             via the tombstone. *)
          let rec victim i =
            if i >= 40 then None
            else if Sd.shard_of_key db (key i) = 2 then Some (key i)
            else victim (i + 1)
          in
          (* a moving key the target does not hold yet: the read misses
             on the target and falls back to the source *)
          (match victim 0 with
           | Some k ->
             let before = counted db Double_reads in
             ignore (Sd.get db k : string option);
             double_read := counted db Double_reads - before
           | None -> ());
          raced := moving_key db 2;
          Sd.put db !raced "raced-live";
          match victim 0 with
          | Some k ->
            deleted := k;
            ignore (Sd.delete db k : bool)
          | None -> ());
      ignore (Sd.split_shard db ~source:0 (region ()) : int);
      check_ok "racing live" db;
      Alcotest.(check (option string)) "raced put survives the stream"
        (Some "raced-live") (Sd.get db !raced);
      if !deleted <> "" then
        Alcotest.(check (option string)) "raced delete survives the stream"
          None (Sd.get db !deleted);
      if !deleted = "" then Alcotest.fail "no seeded key moves to shard 2";
      Alcotest.(check bool) "double-read served the window" true
        (!double_read >= 1))

(* a cross-shard batch touching a moving slot is refused with the typed
   Overloaded while the window is open, and succeeds on retry once the
   window has closed *)
let test_batch_refused_during_window () =
  with_disarm @@ fun () ->
  let _, db = open_sharded ~shards:2 () in
  seed db 40;
  let refused = ref 0 in
  Fault.arm "sharded.migrate.batch_moved" (fun () ->
      match
        Sd.write_batch db (fun b ->
            (* span both a moving slot (routes to shard 2 during the
               window) and a stable key *)
            let rec mk i =
              if Sd.shard_of_key db (Printf.sprintf "win%03d" i) = 2 then
                Printf.sprintf "win%03d" i
              else mk (i + 1)
            in
            Sd.put b (mk 0) "wv";
            Sd.put b "stable-key" "sv")
      with
      | () -> ()
      | exception Kv.Sharded_db.Overloaded { shard; _ } ->
        incr refused;
        Alcotest.(check int) "refusal names the target" 2 shard);
  ignore (Sd.split_shard db ~source:0 (region ()) : int);
  Alcotest.(check bool) "window refused the batch" true (!refused >= 1);
  (* after the flip the same batch goes through *)
  Sd.write_batch db (fun b ->
      Sd.put b "win-after" "wv";
      Sd.put b "stable-key" "sv");
  Alcotest.(check (option string)) "post-window batch lands" (Some "sv")
    (Sd.get db "stable-key");
  check_ok "window refusal" db

(* satellite: open_from_files with the wrong ~shards is a typed error
   before any region is opened *)
let test_shard_mismatch_typed () =
  with_temp_dir (fun dir ->
      let _, db = open_sharded ~shards:2 () in
      seed db 30;
      ignore (Sd.split_shard db ~source:0 (region ()) : int);
      let base = Filename.concat dir "db" in
      Sd.save_to_files db base;
      let expect_mismatch requested =
        match Sd.open_from_files ~shards:requested base with
        | _ -> Alcotest.failf "shards:%d accepted a 3-file family" requested
        | exception Kv.Sharded_db.Shard_mismatch { requested = r; found } ->
          Alcotest.(check int) "requested echoed" requested r;
          Alcotest.(check int) "found counts the family" 3 found
      in
      expect_mismatch 2;
      expect_mismatch 4;
      (* the right count reopens the grown store, route intact *)
      let db2 = Sd.open_from_files ~shards:3 base in
      Alcotest.(check int) "epoch survives the snapshot" 1 (Sd.epoch db2);
      assert_exactly_once "snapshot of a grown store" db2 30;
      Sd.iter db (fun k v ->
          if Sd.get db2 k <> Some v then
            Alcotest.failf "snapshot diverged at %s" k))

(* satellite: the backoff schedule is exact per seed and the retry loop
   follows it precisely *)
let test_overload_retry_schedule () =
  let module S = Kv.Sharded_db in
  let schedule = S.overload_backoff_schedule ~retries:5 ~base_ns:100 ~seed:7 in
  Alcotest.(check int) "five waits" 5 (List.length schedule);
  (* deterministic: same seed, same schedule; different seed differs *)
  Alcotest.(check (list int)) "same seed reproduces"
    schedule
    (S.overload_backoff_schedule ~retries:5 ~base_ns:100 ~seed:7);
  if schedule = S.overload_backoff_schedule ~retries:5 ~base_ns:100 ~seed:8
  then Alcotest.fail "seeds 7 and 8 produced identical jitter";
  (* exponential slots with bounded jitter: wait i lives in
     [base*2^i, base*2^i + max 1 (base*2^i/2)) *)
  List.iteri
    (fun i w ->
      let slot = 100 * (1 lsl i) in
      if w < slot || w >= slot + max 1 (slot / 2) then
        Alcotest.failf "wait %d = %d outside [%d, %d)" i w slot
          (slot + max 1 (slot / 2)))
    schedule;
  (* the retry loop performs retries+1 attempts, sleeping exactly the
     schedule between them, then lets the last failure through *)
  let attempts = ref 0 and waited = ref [] in
  (match
     S.with_overload_retry ~retries:5 ~base_ns:100 ~seed:7
       ~on_wait:(fun w -> waited := w :: !waited)
       (fun () ->
         incr attempts;
         raise (S.Overloaded { shard = 0; in_flight = 1; budget = 1 }))
   with
   | _ -> Alcotest.fail "exhausted retry must re-raise"
   | exception S.Overloaded _ -> ());
  Alcotest.(check int) "attempts" 6 !attempts;
  Alcotest.(check (list int)) "sleeps follow the schedule" schedule
    (List.rev !waited);
  (* success on a later attempt stops the schedule early *)
  let attempts = ref 0 and waited = ref [] in
  let v =
    S.with_overload_retry ~retries:5 ~base_ns:100 ~seed:7
      ~on_wait:(fun w -> waited := w :: !waited)
      (fun () ->
        incr attempts;
        if !attempts < 3 then
          raise (S.Overloaded { shard = 0; in_flight = 1; budget = 1 });
        !attempts * 10)
  in
  Alcotest.(check int) "returns the success value" 30 v;
  Alcotest.(check int) "stopped after success" 3 !attempts;
  Alcotest.(check (list int)) "slept only before success"
    (List.filteri (fun i _ -> i < 2) schedule)
    (List.rev !waited);
  (* other exceptions pass straight through *)
  (match
     S.with_overload_retry ~retries:3 ~seed:1 (fun () -> failwith "boom")
   with
   | _ -> Alcotest.fail "unexpected success"
   | exception Failure _ -> ())

(* ---- qcheck: routing properties (satellite) ---- *)

(* arbitrary printable keys, deterministic enough to re-derive *)
let qkey =
  QCheck.(string_of_size Gen.(1 -- 24))

(* epoch-0 routing is bit-for-bit the pre-elastic FNV-1a route *)
let prop_epoch0_matches_fnv =
  let open QCheck in
  (* the historical route: FNV-1a over the key, one avalanche step,
     modulo the shard count *)
  let legacy_route ~shards k =
    let h = ref 0x4bf29ce484222325 in
    String.iter (fun c -> h := (!h lxor Char.code c) * 0x100000001b3) k;
    let h = !h in
    let h = h lxor (h lsr 33) in
    let h = h * 0x2545F4914F6CDD1D in
    (h lxor (h lsr 29)) land max_int mod shards
  in
  Test.make ~count:100 ~name:"routing: epoch 0 is the legacy FNV-1a route"
    (pair (list_of_size Gen.(1 -- 30) qkey) (int_range 1 6))
    (fun (keys, shards) ->
      let _, db = open_sharded ~shards ~size:(1 lsl 16) () in
      List.for_all
        (fun k -> Sd.shard_of_key db k = legacy_route ~shards k)
        keys)

(* the route survives close/reopen (and so does the epoch) *)
let prop_route_stable_across_reopen =
  let open QCheck in
  Test.make ~count:40 ~name:"routing: stable across close/reopen"
    (pair (list_of_size Gen.(1 -- 20) qkey) bool)
    (fun (keys, resize) ->
      let rs, db = open_sharded ~shards:2 ~size:(1 lsl 17) () in
      seed db 10;
      let rs =
        if resize then begin
          let r2 = region ~size:(1 lsl 17) () in
          ignore (Sd.split_shard db ~source:0 r2 : int);
          Array.append rs [| r2 |]
        end
        else rs
      in
      let before = List.map (fun k -> Sd.shard_of_key db k) keys in
      crash_all rs R.Keep_all;
      let db = Sd.open_db ~initial_buckets:8 rs in
      List.map (fun k -> Sd.shard_of_key db k) keys = before
      && Sd.epoch db = (if resize then 1 else 0))

(* across 8 shards no shard is more than 2x the ideal load *)
let prop_route_uniform =
  let open QCheck in
  Test.make ~count:20 ~name:"routing: uniform within 2x across 8 shards"
    (int_range 0 1000)
    (fun salt ->
      let _, db = open_sharded ~shards:8 ~size:(1 lsl 16) () in
      let n = 2048 in
      let used = Array.make 8 0 in
      for i = 0 to n - 1 do
        let s = Sd.shard_of_key db (Printf.sprintf "uni-%d-%06d" salt i) in
        used.(s) <- used.(s) + 1
      done;
      Array.for_all (fun c -> c <= 2 * (n / 8)) used)

(* ---- shard fault isolation & self-healing (CORRECTNESS.md 14) ---- *)

(* rot the deepest used line of [sick] — both twins for a twin-copy
   engine, the single image otherwise: unrepairable damage that still
   leaves the engine mountable *)
let rot_shard rs db sick =
  match (Sd.media_spans db).(sick) with
  | (mbase, mspan) :: rest ->
    let ls = R.line_size rs.(sick) in
    let delta = mspan - ls in
    R.corrupt_line rs.(sick) ~line:((mbase + delta) / ls);
    (match rest with
     | (bbase, _) :: _ ->
       R.corrupt_line rs.(sick) ~seed:99 ~line:((bbase + delta) / ls)
     | [] -> ())
  | [] -> Alcotest.failf "shard %d has no media spans" sick

(* a settled store: seeded, crashed clean and reopened, so every line is
   durably fenced and at-rest rot is the only damage *)
(* make shard [i]'s engine unmountable (its region's head lines rot),
   then power off every region *)
let smash_head rs i =
  for l = 0 to 3 do
    R.corrupt_line rs.(i) ~line:l
  done;
  crash_all rs R.Drop_all

let settled ?(shards = 4) n =
  let rs, db = open_sharded ~shards () in
  seed db n;
  crash_all rs R.Drop_all;
  (rs, Sd.open_db ~initial_buckets:8 rs)

let keys_on db ~shard n =
  List.filter
    (fun i -> Sd.shard_of_key db (key i) = shard)
    (List.init n (fun i -> i))

let test_health_degraded_read_only () =
  let rs, db = settled 32 in
  rot_shard rs db 1;
  crash_all rs R.Drop_all;
  let db = Sd.open_db ~initial_buckets:8 rs in
  (match Sd.health db 1 with
   | Kv.Sharded_db.Degraded _ -> ()
   | _ -> Alcotest.fail "rot did not degrade shard 1");
  List.iter
    (fun i ->
      match Sd.health db i with
      | Kv.Sharded_db.Healthy -> ()
      | _ -> Alcotest.failf "healthy shard %d reclassified" i)
    [ 0; 2; 3 ];
  (* healthy slots serve both ways; the sick shard serves only reads *)
  let on_sick = ref 0 in
  for i = 0 to 31 do
    let k = key i in
    if Sd.shard_of_key db k = 1 then begin
      incr on_sick;
      (match Sd.get db k with
       | got ->
         if got <> Some (value i) then
           Alcotest.failf "degraded read %s diverged" k
       | exception R.Media_error _ ->
         (* the rotten line itself: typed, never silently blessed *)
         ());
      match Sd.put db k "must-not-land" with
      | () -> Alcotest.fail "write to a Degraded shard accepted"
      | exception Kv.Sharded_db.Shard_unavailable { shard; _ } ->
        Alcotest.(check int) "refusal names the shard" 1 shard
    end
    else begin
      Alcotest.(check (option string)) k (Some (value i)) (Sd.get db k);
      Sd.put db k (value i)
    end
  done;
  if !on_sick = 0 then Alcotest.fail "no key routed to the sick shard";
  (* a cross-shard batch touching the sick shard is refused atomically *)
  let ksick = key (List.hd (keys_on db ~shard:1 32)) in
  let ih = List.hd (keys_on db ~shard:0 32) in
  (match
     Sd.write_batch db (fun b ->
         Sd.put b (key ih) "batched";
         Sd.put b ksick "batched")
   with
   | () -> Alcotest.fail "cross-shard batch into a Degraded shard accepted"
   | exception Kv.Sharded_db.Shard_unavailable { shard; _ } ->
     Alcotest.(check int) "batch refusal names the shard" 1 shard);
  Alcotest.(check (option string)) "refused batch left no trace"
    (Some (value ih)) (Sd.get db (key ih));
  Alcotest.(check bool) "rejections metered" true
    (counted db Unavailable_rejections > 0);
  Alcotest.(check bool) "degradation metered" true
    (counted db Health_degraded > 0)

let test_health_quarantine_unopenable () =
  let rs, _ = settled 32 in
  smash_head rs 2;
  let db = Sd.open_db ~initial_buckets:8 rs in
  (match Sd.health db 2 with
   | Kv.Sharded_db.Quarantined _ -> ()
   | _ -> Alcotest.fail "unopenable shard 2 was not quarantined");
  let hit = ref 0 in
  for i = 0 to 31 do
    let k = key i in
    if Sd.shard_of_key db k = 2 then begin
      incr hit;
      (match Sd.get db k with
       | _ -> Alcotest.fail "quarantined slot served a read"
       | exception Kv.Sharded_db.Shard_unavailable { shard; _ } ->
         Alcotest.(check int) "read refusal blames shard 2" 2 shard);
      match Sd.put db k "must-not-land" with
      | () -> Alcotest.fail "quarantined slot accepted a write"
      | exception Kv.Sharded_db.Shard_unavailable _ -> ()
    end
    else Alcotest.(check (option string)) k (Some (value i)) (Sd.get db k)
  done;
  if !hit = 0 then Alcotest.fail "no key routed to the quarantined shard";
  (* a full scan must refuse — typed — rather than silently miss keys *)
  (match Sd.iter db (fun _ _ -> ()) with
   | () -> Alcotest.fail "scan silently skipped a quarantined shard"
   | exception Kv.Sharded_db.Shard_unavailable { shard; _ } ->
     Alcotest.(check int) "scan refusal blames shard 2" 2 shard);
  Alcotest.(check bool) "quarantine metered" true
    (counted db Health_quarantined > 0)

(* shard 0 anchors the route table, the intents and the health record:
   its loss is the typed fatal, naming the shard *)
let test_shard0_failure_typed () =
  let rs, _ = settled 8 in
  smash_head rs 0;
  match Sd.open_db ~initial_buckets:8 rs with
  | _ -> Alcotest.fail "store opened without its anchor shard"
  | exception Kv.Sharded_db.Shard_open_failed { shard; _ } ->
    Alcotest.(check int) "anchor failure names shard 0" 0 shard

let test_recover_shard_failure_typed () =
  let rs, _ = settled 16 in
  smash_head rs 3;
  let db = Sd.open_db ~initial_buckets:8 rs in
  match Sd.recover_shard db 3 with
  | () -> Alcotest.fail "recover_shard succeeded on a dead shard"
  | exception Kv.Sharded_db.Shard_open_failed { shard; _ } ->
    Alcotest.(check int) "recover_shard names the failing shard" 3 shard

let test_open_from_files_failure_typed () =
  with_temp_dir (fun dir ->
      let _, db = settled 16 in
      let base = Filename.concat dir "db" in
      Sd.save_to_files db base;
      let bad = R.shard_snapshot_path base ~shard:2 in
      let oc = open_out bad in
      output_string oc "not a region snapshot";
      close_out oc;
      match Sd.open_from_files ~shards:4 base with
      | _ -> Alcotest.fail "opened a store from a garbage snapshot"
      | exception Kv.Sharded_db.Shard_open_failed { shard; _ } ->
        Alcotest.(check int) "load failure names the shard" 2 shard)

let test_repair_snapshot_restore () =
  with_temp_dir (fun dir ->
      let rs, db = settled 32 in
      let base = Filename.concat dir "snap" in
      Sd.save_to_files db base;
      rot_shard rs db 1;
      crash_all rs R.Drop_all;
      let db = Sd.open_db ~initial_buckets:8 rs in
      (match Sd.health db 1 with
       | Kv.Sharded_db.Healthy -> Alcotest.fail "rot left shard 1 Healthy"
       | _ -> ());
      (match Sd.repair ~snapshot_base:base db with
       | [ (1, Sd.Snapshot_restored) ] -> ()
       | _ -> Alcotest.fail "expected a snapshot restore of shard 1");
      (match Sd.health db 1 with
       | Kv.Sharded_db.Healthy -> ()
       | _ -> Alcotest.fail "restore did not heal the shard");
      for i = 0 to 31 do
        Alcotest.(check (option string))
          (key i) (Some (value i))
          (Sd.get db (key i))
      done;
      Sd.put db (key 0) "writable-again";
      Alcotest.(check (option string)) "writes re-enabled"
        (Some "writable-again") (Sd.get db (key 0));
      Alcotest.(check bool) "restore metered" true
        (counted db Repair_snapshot_restores > 0);
      Alcotest.(check bool) "healing metered" true
        (counted db Health_repaired > 0);
      check_ok "restored store" db;
      (* the healed verdict is durable — the restore swapped a fresh
         region in for shard 1, so reopen through the store's current
         region table, not the original (still rotten) one *)
      let rs = Sd.regions db in
      crash_all rs R.Drop_all;
      let db = Sd.open_db ~initial_buckets:8 rs in
      match Sd.health db 1 with
      | Kv.Sharded_db.Healthy -> ()
      | _ -> Alcotest.fail "healed verdict lost across reopen")

(* R2 swaps a freshly loaded region in for the patient; the store's
   counts of what happened to that shard before the swap (its
   quarantine, every scrub attempt) must survive it *)
let test_restore_keeps_counts () =
  with_temp_dir (fun dir ->
      let rs, db = settled 32 in
      let base = Filename.concat dir "snap" in
      Sd.save_to_files db base;
      smash_head rs 2;
      let db = Sd.open_db ~initial_buckets:8 rs in
      (match Sd.health db 2 with
       | Kv.Sharded_db.Quarantined _ -> ()
       | _ -> Alcotest.fail "unopenable shard 2 was not quarantined");
      (match Sd.repair ~retries:2 ~snapshot_base:base db with
       | [ (2, Sd.Snapshot_restored) ] -> ()
       | _ -> Alcotest.fail "expected a snapshot restore of shard 2");
      Alcotest.(check int) "quarantine still counted" 1
        (counted db Health_quarantined);
      Alcotest.(check int) "every scrub attempt still counted" 3
        (counted db Repair_attempts);
      Alcotest.(check int) "restore counted" 1
        (counted db Repair_snapshot_restores);
      Alcotest.(check int) "healing counted" 1 (counted db Health_repaired))

let test_repair_evacuates () =
  let rs, db = settled 32 in
  let sick = 1 in
  let expected_sick = keys_on db ~shard:sick 32 in
  if expected_sick = [] then Alcotest.fail "no key routed to shard 1";
  rot_shard rs db sick;
  crash_all rs R.Drop_all;
  let db = Sd.open_db ~initial_buckets:8 rs in
  let target, moved =
    match Sd.repair db with
    | [ (s, Sd.Evacuated_keys { target; moved }) ] when s = sick ->
      (target, moved)
    | _ -> Alcotest.fail "expected an evacuation of shard 1"
  in
  (match Sd.health db sick with
   | Kv.Sharded_db.Quarantined (Kv.Sharded_db.Evacuated { target = t }) ->
     Alcotest.(check int) "verdict names the target" target t
   | _ -> Alcotest.fail "evacuated shard carries the wrong verdict");
  (match Sd.health db target with
   | Kv.Sharded_db.Healthy -> ()
   | _ -> Alcotest.fail "evacuation target is not healthy");
  for s = 0 to Sd.route_slots db - 1 do
    if Sd.shard_of_slot db s = sick then
      Alcotest.failf "slot %d still routed to the evacuated shard" s
  done;
  (* survivors byte-identical and exactly once; losses only ever keys
     that lived on the evacuated shard *)
  let survivors = ref 0 in
  List.iter
    (fun i ->
      match Sd.get db (key i) with
      | Some v ->
        incr survivors;
        Alcotest.(check string) (key i) (value i) v
      | None -> ())
    expected_sick;
  Alcotest.(check int) "moved = surviving sick keys" !survivors moved;
  let seen = Hashtbl.create 64 in
  Sd.iter db (fun k _ ->
      if Hashtbl.mem seen k then Alcotest.failf "scan served %s twice" k;
      Hashtbl.replace seen k ());
  Alcotest.(check int) "scan and count agree" (Hashtbl.length seen)
    (Sd.count db);
  List.iter
    (fun i ->
      if not (List.mem i expected_sick) then
        Alcotest.(check (option string))
          (key i) (Some (value i))
          (Sd.get db (key i)))
    (List.init 32 (fun i -> i));
  (* a write to a re-routed key lands on the adopting shard *)
  let i0 = List.hd expected_sick in
  Sd.put db (key i0) "rerouted";
  Alcotest.(check (option string)) "rerouted write lands" (Some "rerouted")
    (Sd.get db (key i0));
  Alcotest.(check bool) "evacuation metered" true
    (counted db Shards_evacuated > 0);
  Alcotest.(check int) "nothing left hooked" 0 (Sd.pending_intents db);
  (* the retired verdict survives further crash-recoveries *)
  crash_all rs R.Drop_all;
  let db = Sd.open_db ~initial_buckets:8 rs in
  (match Sd.health db sick with
   | Kv.Sharded_db.Quarantined (Kv.Sharded_db.Evacuated _) -> ()
   | _ -> Alcotest.fail "evacuated verdict lost across reopen");
  Alcotest.(check (option string)) "rerouted key survives reopen"
    (Some "rerouted")
    (Sd.get db (key i0));
  check_ok "evacuated store" db

(* qcheck: rot in one shard is attributed to that shard alone — the
   per-shard scrub reports and the per-region counters both stay silent
   for every healthy shard *)
let prop_scrub_attribution =
  let open QCheck in
  Test.make ~count:30
    ~name:"health: scrub attributes rot to the sick shard alone"
    (triple (int_range 1 3) small_nat bool)
    (fun (sick, pick, both) ->
      let rs, db = open_sharded () in
      seed db 24;
      crash_all rs R.Drop_all;
      let db = Sd.open_db ~initial_buckets:8 rs in
      match (Sd.media_spans db).(sick) with
      | (mbase, mspan) :: rest ->
        let ls = R.line_size rs.(sick) in
        let nlines = max 1 (mspan / ls) in
        let delta = pick mod nlines * ls in
        R.corrupt_line rs.(sick) ~line:((mbase + delta) / ls);
        (match rest with
         | (bbase, _) :: _ when both ->
           R.corrupt_line rs.(sick) ~seed:7 ~line:((bbase + delta) / ls)
         | _ -> ());
        let before =
          Array.map (fun r -> Pmem.Stats.snapshot (R.stats r)) rs
        in
        let reports = Sd.scrub_shards db in
        List.length reports = 4
        && List.for_all
             (fun (i, rep) ->
               let d =
                 Pmem.Stats.since ~now:(R.stats rs.(i)) ~past:before.(i)
               in
               let unrep = List.length rep.Romulus.Engine.unrepairable in
               if i = sick then
                 rep.Romulus.Engine.repaired + unrep >= 1
                 && d.Pmem.Stats.repaired_lines = rep.Romulus.Engine.repaired
                 && d.Pmem.Stats.unrepairable_lines >= unrep
               else
                 rep.Romulus.Engine.repaired = 0
                 && unrep = 0
                 && d.Pmem.Stats.repaired_lines = 0
                 && d.Pmem.Stats.unrepairable_lines = 0)
             reports
      | [] -> false)

(* ---- counter tables ---- *)

(* A layer's counter table: every name unique and documented, [since]
   subtracts every counter and [pp] prints every one as name=value. *)
let check_counter_table (module C : Kv.Counter_set.S) () =
  let names = List.map (fun (_, name, _) -> name) C.table in
  Alcotest.(check int) "names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  let past = C.create () and now = C.create () in
  List.iteri
    (fun i (c, name, doc) ->
      if doc = "" then Alcotest.failf "%s: no doc" name;
      C.count past c (100 + i);
      C.count now c (2 * (100 + i)))
    C.table;
  let d = C.since ~now ~past in
  let printed = String.split_on_char ' ' (Format.asprintf "%a" C.pp d) in
  List.iteri
    (fun i (c, name, _) ->
      Alcotest.(check int) (name ^ " since") (100 + i) (C.get d c);
      let field = Printf.sprintf "%s=%d" name (100 + i) in
      if not (List.mem field printed) then
        Alcotest.failf "pp does not print %s" field)
    C.table

(* ---- group-commit front-end (Group_commit, CORRECTNESS.md 15) ---- *)

module Gc = Kv.Group_commit.Default
module Gcc = Kv.Group_commit.Counters

(* the front-end's own counter *)
let grouped fe c = Gcc.get (Gc.counters fe) c

(* first [n] indices whose key routes to [shard] under [db] *)
let group_keys_on db ~shard n =
  let rec go i acc left =
    if left = 0 then List.rev acc
    else if Sd.shard_of_key db (key i) = shard then
      go (i + 1) (i :: acc) (left - 1)
    else go (i + 1) acc left
  in
  go 0 [] n

let test_group_async_coalesces () =
  let _, db = open_sharded () in
  let fe = Gc.attach ~window:32 ~ack:Kv.Group_commit.Async db in
  Alcotest.(check int) "queues = shards + cross" 5 (Gc.queues fe);
  for i = 0 to 19 do
    Gc.put fe (key i) (value i)
  done;
  (* nothing drained yet: acks were given at enqueue, the store is empty *)
  Alcotest.(check int) "all queued" 20 (Gc.pending fe);
  Alcotest.(check (option string)) "store not yet durable" None
    (Sd.get db (key 3));
  Alcotest.(check (option string)) "read-your-writes from the queue"
    (Some (value 3)) (Gc.get fe (key 3));
  Alcotest.(check int) "async acks counted" 20 (grouped fe Async_acks);
  Alcotest.(check int) "no engine round yet" 0 (grouped fe Group_commits);
  Gc.flush fe;
  Alcotest.(check int) "drained" 0 (Gc.pending fe);
  for i = 0 to 19 do
    if Sd.get db (key i) <> Some (value i) then
      Alcotest.failf "flush lost %s" (key i)
  done;
  Alcotest.(check int) "every logical tx settled" 20
    (grouped fe Group_size_sum);
  Alcotest.(check int) "one flush" 1 (grouped fe Flushes);
  (* 20 logical txs over 4 shard queues: at most 4 engine rounds, so at
     least 16 fence sequences were never paid *)
  Alcotest.(check bool) "coalesced (rounds <= shards)" true
    (grouped fe Group_commits <= 4);
  Alcotest.(check int) "fences saved = logical - rounds"
    (20 - grouped fe Group_commits) (grouped fe Fences_saved);
  (* watermark = submitted on every queue after a flush *)
  for qi = 0 to Gc.queues fe - 1 do
    Alcotest.(check int) "watermark caught up" (Gc.submitted fe qi)
      (Gc.watermark fe qi)
  done;
  check_ok "group async" db

let test_group_sync_is_per_tx () =
  let _, db = open_sharded () in
  let fe = Gc.attach ~ack:Kv.Group_commit.Sync db in
  for i = 0 to 9 do
    Gc.put fe (key i) (value i);
    (* Sync acks at the flip: the write is durable when put returns *)
    Alcotest.(check (option string)) "durable at ack" (Some (value i))
      (Sd.get db (key i))
  done;
  Gc.delete fe (key 0);
  Alcotest.(check (option string)) "delete durable at ack" None
    (Sd.get db (key 0));
  Alcotest.(check int) "one engine round per logical tx" 11
    (grouped fe Group_commits);
  Alcotest.(check int) "nothing saved at group size 1" 0
    (grouped fe Fences_saved);
  Alcotest.(check int) "no async acks in Sync mode" 0
    (grouped fe Async_acks)

let test_group_batch_sync_threshold () =
  let _, db = open_sharded () in
  let fe =
    Gc.attach ~window:32
      ~ack:(Kv.Group_commit.Batch_sync { txs = 4; bytes = max_int }) db
  in
  (* four keys on one shard queue so the txs threshold governs *)
  let shard = Sd.shard_of_key db (key 0) in
  let ks = group_keys_on db ~shard 4 in
  List.iteri
    (fun n i ->
      Gc.put fe (key i) (value i);
      if n < 3 then begin
        Alcotest.(check int) "below threshold: watermark parked" 0
          (Gc.watermark fe shard);
        Alcotest.(check int) "acked rides the watermark" 0
          (Gc.acked fe shard)
      end)
    ks;
  (* the fourth put crossed the threshold: the group drained as one
     engine round and the watermark passed all four *)
  Alcotest.(check int) "group drained at txs threshold" 4
    (Gc.watermark fe shard);
  Alcotest.(check int) "acked with the group" 4 (Gc.acked fe shard);
  List.iter
    (fun i ->
      if Sd.get db (key i) <> Some (value i) then
        Alcotest.failf "batch-sync lost %s" (key i))
    ks;
  Alcotest.(check int) "one engine round for the group" 1
    (grouped fe Group_commits);
  Alcotest.(check int) "three fences amortized away" 3
    (grouped fe Fences_saved);
  Alcotest.(check int) "largest group recorded" 4
    (grouped fe Group_size_max)

(* one front-end owns one high-water mark: a group of 4 on one shard
   queue and a group of 3 on another leave 4, not their sum *)
let test_group_size_max_is_a_max () =
  let _, db = open_sharded () in
  let fe = Gc.attach ~window:32 ~ack:Kv.Group_commit.Async db in
  let a = Sd.shard_of_key db (key 0) in
  let b = (a + 1) mod Sd.shards db in
  List.iter
    (fun (shard, n) ->
      List.iter
        (fun i -> Gc.put fe (key i) (value i))
        (group_keys_on db ~shard n))
    [ (a, 4); (b, 3) ];
  Gc.flush fe;
  Alcotest.(check int) "one engine round per group" 2
    (grouped fe Group_commits);
  Alcotest.(check int) "largest group, not a sum" 4
    (grouped fe Group_size_max)

let test_group_cross_batches_share_intent () =
  let _, db = open_sharded () in
  let fe = Gc.attach ~window:32 ~ack:Kv.Group_commit.Async db in
  let flips0 = counted db Coordinator_flips in
  (* three cross-shard batches queued back to back: one shared intent *)
  for b = 0 to 2 do
    Gc.write_batch fe (fun h ->
        Sd.put h (Printf.sprintf "cross-%d-a" b) "A";
        Sd.put h (Printf.sprintf "cross-%d-b" b) "B";
        Sd.put h (Printf.sprintf "cross-%d-c" b) "C")
  done;
  Gc.flush fe;
  for b = 0 to 2 do
    if Sd.get db (Printf.sprintf "cross-%d-a" b) <> Some "A" then
      Alcotest.failf "merged batch %d lost" b
  done;
  Alcotest.(check int) "one coordinator flip for the whole group" 1
    (counted db Coordinator_flips - flips0);
  Alcotest.(check int) "two batches rode the shared intent" 2
    (grouped fe Merged_intents);
  check_ok "shared intent" db

let test_group_raiser_fails_alone_in_window () =
  let _, db = open_sharded () in
  let fe = Gc.attach ~window:32 ~ack:Kv.Group_commit.Async db in
  Gc.write_batch fe (fun h -> Sd.put h "grp-ok-1" "1");
  Gc.write_batch fe (fun _ -> raise Exit);
  Gc.write_batch fe (fun h -> Sd.put h "grp-ok-2" "2");
  (* the raiser is answered alone (its failure deferred, Tx_aborted
     around the client exception) and the survivors commit as a new
     group; flush surfaces the deferred failure *)
  (match Gc.flush fe with
   | () -> Alcotest.fail "flush swallowed the raiser's failure"
   | exception Romulus.Engine.Tx_aborted { cause = Exit; _ } -> ()
   | exception e -> Alcotest.failf "unexpected %s" (Printexc.to_string e));
  Alcotest.(check (option string)) "survivor before raiser" (Some "1")
    (Sd.get db "grp-ok-1");
  Alcotest.(check (option string)) "survivor after raiser" (Some "2")
    (Sd.get db "grp-ok-2");
  Alcotest.(check int) "deferred list cleared" 0
    (List.length (Gc.failures fe));
  check_ok "raiser window" db

let test_group_barrier_ordering () =
  let _, db = open_sharded () in
  let fe = Gc.attach ~window:32 ~ack:Kv.Group_commit.Async db in
  (* put / cross-batch / put on the same key: the cross queue is a
     sequencing barrier, so the last write must win *)
  Gc.put fe "ord" "first";
  Gc.write_batch fe (fun h ->
      Sd.put h "ord" "second";
      Sd.put h "ord-peer" "x");
  Gc.put fe "ord" "third";
  Alcotest.(check (option string)) "read-your-writes sees the newest"
    (Some "third") (Gc.get fe "ord");
  Gc.flush fe;
  Alcotest.(check (option string)) "submission order preserved"
    (Some "third") (Sd.get db "ord");
  Alcotest.(check (option string)) "batch effect present" (Some "x")
    (Sd.get db "ord-peer");
  (* delete ordering across the barrier too *)
  Gc.write_batch fe (fun h -> Sd.put h "ord" "fourth");
  Gc.delete fe "ord";
  Alcotest.(check (option string)) "delete after batch wins" None
    (Gc.get fe "ord");
  Gc.flush fe;
  Alcotest.(check (option string)) "delete durable" None (Sd.get db "ord")

(* QCheck: the durability watermark is monotone and the acked set is
   prefix-closed across all three modes, and a final flush converges the
   front-end onto the bare store's contents (model-checked replay). *)
let prop_group_watermark =
  let open QCheck in
  let mode_of = function
    | 0 -> Kv.Group_commit.Sync
    | 1 -> Kv.Group_commit.Batch_sync { txs = 3; bytes = 256 }
    | _ -> Kv.Group_commit.Async
  in
  let mode_name = function
    | 0 -> "Sync" | 1 -> "Batch_sync" | _ -> "Async"
  in
  Test.make ~count:60
    ~name:"group: watermark monotone, acks prefix-closed, flush converges"
    (triple (int_bound 2) (int_range 1 6)
       (list_of_size Gen.(1 -- 40) (pair (int_bound 15) (int_bound 3))))
    (fun (m, window, ops) ->
      let _, db = open_sharded ~size:(1 lsl 17) () in
      let fe = Gc.attach ~window ~ack:(mode_of m) db in
      let model = Hashtbl.create 16 in
      let nq = Gc.queues fe in
      let last_mark = Array.make nq 0 and last_ack = Array.make nq 0 in
      let observe () =
        for qi = 0 to nq - 1 do
          let w = Gc.watermark fe qi and a = Gc.acked fe qi in
          let s = Gc.submitted fe qi in
          if w < last_mark.(qi) then
            Test.fail_reportf "%s: watermark regressed on queue %d"
              (mode_name m) qi;
          if a < last_ack.(qi) then
            Test.fail_reportf "%s: acked regressed on queue %d"
              (mode_name m) qi;
          if w > s || a > s then
            Test.fail_reportf "%s: mark beyond submissions on queue %d"
              (mode_name m) qi;
          (* prefix closure per mode: Sync/Batch_sync ack exactly at the
             watermark; Async acks the whole submitted prefix *)
          (match mode_of m with
           | Kv.Group_commit.Async ->
             if a <> s then
               Test.fail_reportf "Async: ack not given at enqueue"
           | _ ->
             if a <> w then
               Test.fail_reportf "%s: ack strayed from the watermark"
                 (mode_name m));
          last_mark.(qi) <- w;
          last_ack.(qi) <- a
        done
      in
      List.iter
        (fun (ki, kind) ->
          let k = key ki in
          (match kind with
           | 0 | 1 ->
             let v = Printf.sprintf "v%d-%d" ki kind in
             Gc.put fe k v;
             Hashtbl.replace model k v
           | 2 ->
             Gc.delete fe k;
             Hashtbl.remove model k
           | _ ->
             let v = Printf.sprintf "b%d" ki in
             Gc.write_batch fe (fun h ->
                 Sd.put h k v;
                 Sd.put h (k ^ "'") v);
             Hashtbl.replace model k v;
             Hashtbl.replace model (k ^ "'") v);
          observe ())
        ops;
      Gc.flush fe;
      observe ();
      for qi = 0 to nq - 1 do
        if Gc.watermark fe qi <> Gc.submitted fe qi then
          Test.fail_reportf "%s: flush left queue %d short" (mode_name m) qi
      done;
      (* converged onto the model *)
      Hashtbl.iter
        (fun k v ->
          if Sd.get db k <> Some v then
            Test.fail_reportf "%s: model key %s diverged" (mode_name m) k)
        model;
      let extra = ref 0 in
      Sd.iter db (fun k _ -> if not (Hashtbl.mem model k) then incr extra);
      !extra = 0)

(* ---- one media pass per shard open ----

   [open_db] classifies each shard from the data-loss lines its open's
   own recovery scrub tolerated; the store used to open the shard and
   then scrub it again.  These check, for every PTM, that each region's
   medium is read once per open, and that the verdicts and lost offsets
   are those of the old open-then-rescrub path on the same rotted
   images. *)
module Open_pass (P : Kv.Sharded_db.SHARD_PTM) = struct
  module S = Kv.Sharded_db.Make (P)

  (* a 4-shard store, seeded, crashed clean and reopened, with each
     shard's media spans as that reopen left them *)
  let settled () =
    let rs = regions 4 in
    let db = S.open_db ~initial_buckets:8 rs in
    for i = 0 to 31 do
      S.put db (key i) (value i)
    done;
    crash_all rs R.Drop_all;
    let db = S.open_db ~initial_buckets:8 rs in
    (rs, S.media_spans db)

  let scrubbed r = (R.stats r).Pmem.Stats.scrubbed_lines

  (* lines one media pass audits: the header lines below the first span
     (none for the single-copy baselines, whose span starts at 0), then
     every line of each span *)
  let audited r spans =
    let ls = R.line_size r in
    match spans with
    | [] -> 0
    | (first, _) :: _ ->
      List.fold_left
        (fun n (_, len) -> n + ((len + ls - 1) / ls))
        (first / ls) spans

  let test_scrub_once () =
    let rs, spans = settled () in
    crash_all rs R.Drop_all;
    let before = Array.map scrubbed rs in
    ignore (S.open_db ~initial_buckets:8 rs : S.t);
    Array.iteri
      (fun i r ->
        Alcotest.(check int)
          (Printf.sprintf "shard %d lines scrubbed by one open" i)
          (audited r spans.(i))
          (scrubbed r - before.(i)))
      rs

  (* shard 0 stays sound (it anchors the store); shard 1 rots its
     deepest used line in the first span only (one twin), shard 2 in
     every span (both twins, under IDL), shard 3 its header line *)
  let rotted () =
    let rs, spans = settled () in
    let deepest r (base, len) = (base + len - 1) / R.line_size r in
    (match spans.(1) with
     | s :: _ -> R.corrupt_line rs.(1) ~line:(deepest rs.(1) s)
     | [] -> Alcotest.fail "shard 1 has no media spans");
    List.iteri
      (fun k sp -> R.corrupt_line rs.(2) ~seed:(97 + k) ~line:(deepest rs.(2) sp))
      spans.(2);
    R.corrupt_line rs.(3) ~line:0;
    crash_all rs R.Drop_all;
    rs

  (* the old path: open the shard, then one more salvage scrub *)
  let rescrubbed r =
    match P.open_region r with
    | p -> Ok (P.scrub_salvage p).Romulus.Engine.unrepairable
    | exception e -> Error e

  let single_pass r =
    match P.open_salvage r with
    | _, lost -> Ok lost
    | exception e -> Error e

  (* [open_db]'s mapping from a shard open's outcome to its verdict *)
  let verdict =
    let open Kv.Sharded_db in
    function
    | Ok [] -> Healthy
    | Ok ((offset, state) :: _) -> Degraded (Unrepairable_media { offset; state })
    | Error (Romulus.Engine.Unrepairable { offset; state }) ->
      Quarantined (Unrepairable_media { offset; state })
    | Error (Romulus.Engine.Recovery_error msg) -> Quarantined (Open_failed msg)
    | Error (R.Media_error { offset; _ }) ->
      Quarantined
        (Open_failed
           (Printf.sprintf "media error at offset %d while opening" offset))
    | Error e -> Quarantined (Open_failed (Printexc.to_string e))

  (* R1 on a Quarantined shard: header rot refuses shard 3's open, the
     rot then clears at the source, and one repair attempt remounts the
     shard — the remount's own recovery scrub is the attempt's only pass
     over its lines *)
  let test_r1_scrub_once () =
    let rs, spans = settled () in
    crash_all rs R.Drop_all;
    let rot r =
      R.corrupt_bits r ~seed:5 ~off:0 ~len:(R.line_size r) ~flips:3
    in
    rot rs.(3);
    let db = S.open_db ~initial_buckets:8 rs in
    (match S.health db 3 with
     | Kv.Sharded_db.Quarantined _ -> ()
     | _ -> Alcotest.fail "header rot should quarantine shard 3");
    rot rs.(3);
    let before = scrubbed rs.(3) in
    (match S.repair ~retries:0 db with
     | [ (3, S.Scrub_repaired) ] -> ()
     | _ -> Alcotest.fail "one R1 attempt should remount shard 3");
    Alcotest.(check int) "shard 3 lines scrubbed by one R1 attempt"
      (audited rs.(3) spans.(3))
      (scrubbed rs.(3) - before)

  let test_verdicts_match_rescrub () =
    let old = Array.map rescrubbed (rotted ()) in
    let fresh = Array.map single_pass (rotted ()) in
    Array.iteri
      (fun i o ->
        if o <> fresh.(i) then
          Alcotest.failf "shard %d: the open's own scrub disagrees with a rescrub"
            i)
      old;
    (match old.(2) with
     | Ok (_ :: _) -> ()
     | _ -> Alcotest.fail "shard 2's rot should be tolerated data loss");
    (match old.(3) with
     | Error _ -> ()
     | Ok _ -> Alcotest.fail "shard 3's header rot should refuse the open");
    let db = S.open_db ~initial_buckets:8 (rotted ()) in
    Array.iteri
      (fun i o ->
        if S.health db i <> verdict o then
          Alcotest.failf "shard %d: open_db's verdict differs from the rescrub's"
            i)
      old
end

let suite =
  let tc = Alcotest.test_case in
  [ tc "sharded basics" `Quick test_basics;
    tc "invalid arguments typed" `Quick test_invalid_args;
    tc "shards=1 bitwise equivalence" `Quick test_shard1_bitwise_equivalence;
    tc "participant mask names each shard" `Quick
      test_mask_names_participants;
    tc "more than 63 shards refused" `Quick test_too_many_shards;
    tc "golden persistent image (romL)" `Quick test_golden_image_romL;
    tc "golden persistent image (rom)" `Quick test_golden_image_rom;
    tc "raising closure discards buffer" `Quick
      test_raising_closure_discards_buffer;
    tc "crash sweep drop-all" `Slow test_crash_sweep_drop_all;
    tc "crash sweep keep-all" `Slow test_crash_sweep_keep_all;
    tc "crash sweep random-subset" `Slow test_crash_sweep_random_subset;
    tc "crash sweep torn-words" `Slow test_crash_sweep_torn_words;
    tc "decentralized runtime abort" `Quick test_d_runtime_abort;
    tc "lazy CLEAR reclamation" `Quick test_deferred_clear_reclamation;
    tc "legacy shard-0 intent refused" `Quick test_legacy_intent_refused;
    tc "lost update: runtime abort race" `Quick
      test_d_lost_update_runtime_abort;
    tc "lost update: crash recovery race" `Quick
      test_d_lost_update_crash_recovery;
    tc "parallel recovery" `Quick test_parallel_recovery;
    tc "scrub repairs a shard" `Quick test_scrub_repairs_shard;
    tc "scrub salvages double fault" `Quick test_scrub_salvages_double_fault;
    tc "snapshot round trip" `Quick test_snapshot_roundtrip;
    tc "chunk chain rejections" `Quick test_chunk_chain_rejections;
    tc "chunked batch commits with spilled undo" `Quick
      test_chunked_batch_commits;
    tc "chunked racing invalidation refreshes CRC" `Quick
      test_chunked_racing_invalidation;
    tc "admission: over-budget batch refused" `Quick
      test_admission_overload_immediate;
    tc "admission: concurrent batches degrade" `Quick
      test_admission_overload_concurrent;
    tc "chunking survives a fragmented arena" `Quick
      test_chunking_survives_fragmentation;
    tc "redo overflow retried with smaller chunks (injected)" `Quick
      test_overflow_retry_injected;
    tc "redo overflow retried with smaller chunks (tight log)" `Quick
      test_overflow_retry_real;
    tc "flush_clears bounds the lazy queues" `Quick test_flush_clears;
    tc "elastic: split basics" `Quick test_split_basic;
    tc "elastic: merge basics" `Quick test_merge_basic;
    tc "elastic: flipped route survives reopen" `Quick test_resize_persists;
    tc "elastic: resize guards typed" `Quick test_resize_guards;
    tc "elastic: kill at every migrate failpoint" `Slow
      test_split_crash_at_failpoints;
    tc "elastic: racing write vs move stream" `Quick
      test_racing_write_during_split;
    tc "elastic: batch refused during window" `Quick
      test_batch_refused_during_window;
    tc "open_from_files shard mismatch typed" `Quick
      test_shard_mismatch_typed;
    tc "overload retry schedule exact per seed" `Quick
      test_overload_retry_schedule;
    tc "health: degraded shard serves reads only" `Quick
      test_health_degraded_read_only;
    tc "health: unopenable shard quarantined" `Quick
      test_health_quarantine_unopenable;
    tc "health: shard-0 failure typed" `Quick test_shard0_failure_typed;
    tc "health: recover_shard failure typed" `Quick
      test_recover_shard_failure_typed;
    tc "health: open_from_files failure typed" `Quick
      test_open_from_files_failure_typed;
    tc "repair: snapshot restore heals" `Quick test_repair_snapshot_restore;
    tc "repair: evacuation retires the shard" `Quick test_repair_evacuates;
    tc "group: async coalesces windows" `Quick test_group_async_coalesces;
    tc "group: Sync is the per-tx baseline" `Quick test_group_sync_is_per_tx;
    tc "group: Batch_sync txs threshold" `Quick
      test_group_batch_sync_threshold;
    tc "group: cross batches share one intent" `Quick
      test_group_cross_batches_share_intent;
    tc "group: raiser fails alone in its window" `Quick
      test_group_raiser_fails_alone_in_window;
    tc "group: cross queue is a sequencing barrier" `Quick
      test_group_barrier_ordering ]
  (* the two blocks before the QCheck properties keep the routing
     properties at indices 64-66, which their printed names carry *)
  @ [ tc "repair: snapshot restore keeps the shard's counts" `Quick
        test_restore_keeps_counts;
      tc "group: group_size_max is the largest group" `Quick
        test_group_size_max_is_a_max;
      tc "counters: Sharded_db table covers every counter" `Quick
        (check_counter_table (module Sc));
      tc "counters: Group_commit table covers every counter" `Quick
        (check_counter_table (module Kv.Group_commit.Counters));
      tc "parallel recoveries on mne release their thread slots" `Quick
        test_parallel_recovery_releases_slots ]
  @ [ tc "hostile records opened or refused by name" `Quick
        test_hostile_records;
      tc "pre-flip reopen access counts" `Quick test_preflip_reopen_counts;
      tc "cross-shard batch access counts" `Quick test_batch_counts;
      tc "decentralized: early race vs runtime abort" `Quick
        test_d_early_race_runtime_abort;
      tc "decentralized: early race vs crash recovery" `Quick
        test_d_early_race_crash_recovery ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_d_racing_mix; prop_chunk_roundtrip; prop_epoch0_matches_fnv;
        prop_route_stable_across_reopen; prop_route_uniform;
        prop_scrub_attribution; prop_group_watermark ]
  @ List.concat_map
      (fun (module P : Kv.Sharded_db.SHARD_PTM) ->
        let module O = Open_pass (P) in
        [ tc ("open_db scrubs each shard once: " ^ P.name) `Quick
            O.test_scrub_once;
          tc ("open_db verdicts match open + rescrub: " ^ P.name) `Quick
            O.test_verdicts_match_rescrub;
          tc ("one R1 attempt on a Quarantined shard scrubs each line once: "
              ^ P.name) `Quick O.test_r1_scrub_once ])
      [ (module Romulus.Basic); (module Romulus.Logged); (module Romulus.Lr);
        (module Baselines.Redolog); (module Baselines.Undolog) ]

(* ---- the per-get fixed cost ---- *)

(* The minor words of one [f ()], averaged over [n] calls after a warm-up. *)
let words_per_call ?(n = 1_000) f =
  for _ = 1 to 100 do f () done;
  let before = Stdlib.Gc.minor_words () in
  for _ = 1 to n do f () done;
  (Stdlib.Gc.minor_words () -. before) /. float_of_int n

(* A get hit (16-byte key, 100-byte value) allocated 72 minor words
   before the key was hashed once, and 45 before the bucket walk lost its
   closure and tuple and the stored key was compared in place.  It
   measures 23 now: the 16-word answer (the value string, 14 words with
   its header, and its [Some], 2) and the 7-word [read_tx] closure of
   [Hash_map.get_hashed] (header, code pointer, closure info, and the
   captured [t], [hash], [k] and [lookup]).  A bounded [Region.load]
   allocates nothing. *)
let test_get_allocation () =
  let _, db = open_sharded () in
  let k = "key-000000000042" and v = String.make 100 'v' in
  Sd.put db k v;
  Sd.put db "key-000000000043" v;
  Alcotest.(check (option string)) "hit" (Some v) (Sd.get db k);
  let get_words = words_per_call (fun () -> ignore (Sd.get db k)) in
  if get_words > 23. then
    Alcotest.failf "Sharded_db.get hit: %.1f minor words, at most 23 expected"
      get_words;
  let r = region () in
  let load_words = words_per_call (fun () -> ignore (R.load r 4096)) in
  if load_words > 0.01 then
    Alcotest.failf "Region.load: %.2f minor words, none expected" load_words

(* Routing and bucket placement are on-media: both hashes stay the
   String.iter FNV-1a, and the hashed lookup the read path takes answers
   exactly what [get] answers. *)
let prop_one_hash_per_get =
  let open QCheck in
  let module Blob = Pds.Codec.Blob.Make (Romulus.Logged) in
  let module M = Pds.Hash_map.Of_codec (Pds.Codec.Blob) (Romulus.Logged) in
  let reference s =
    let h = ref 0x4bf29ce484222325 in
    String.iter (fun c -> h := (!h lxor Char.code c) * 0x100000001b3) s;
    !h
  in
  let avalanche h =
    let h = h lxor (h lsr 33) in
    let h = h * 0x2545F4914F6CDD1D in
    (h lxor (h lsr 29)) land max_int
  in
  let key = string_gen_of_size Gen.(0 -- 64) Gen.char in
  Test.make ~count:100 ~name:"routing: one FNV-1a pass per get"
    (pair (list_of_size Gen.(1 -- 20) key) (list_of_size Gen.(1 -- 20) key))
    (fun (stored, probes) ->
      let p = Romulus.Logged.open_region (region ~size:(1 lsl 16) ()) in
      let m = M.create ~initial_buckets:4 p ~root:0 in
      List.iter (fun k -> ignore (M.put m k (k ^ "!") : bool)) stored;
      List.for_all
        (fun k ->
          let h = Pds.Codec.fnv1a k in
          h = reference k
          && Kv.Shard_records.route_hash k = avalanche (reference k)
          && Blob.hash k = reference k land max_int
          && M.get_hashed m ~hash:(h land max_int) k = M.get m k)
        (stored @ probes))

let suite =
  suite
  @ [ Alcotest.test_case "get hit allocation pin" `Quick test_get_allocation;
      QCheck_alcotest.to_alcotest prop_one_hash_per_get;
      Alcotest.test_case "decentralized: streamed race vs runtime abort"
        `Quick test_d_streamed_race_runtime_abort;
      Alcotest.test_case "decentralized: streamed race vs crash recovery"
        `Quick test_d_streamed_race_crash_recovery;
      Alcotest.test_case "decentralized: stale captures end in Overloaded"
        `Quick test_d_capture_retries_bound ]

let () = Alcotest.run "sharded" [ ("sharded", suite) ]
