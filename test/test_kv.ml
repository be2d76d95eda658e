(* Tests for the key-value layer: the string hash map, RomulusDB (LevelDB
   interface over a PTM), the simulated block device and the LevelDB-like
   baseline with buffered durability. *)

module R = Pmem.Region

let region ?(size = 1 lsl 20) () = R.create ~size ()

(* ---- string hash map over RomulusLog ---- *)

module SM = Pds.Hash_map.Of_codec (Pds.Codec.Blob) (Romulus.Logged)

let test_strmap_basics () =
  let r = region () in
  let p = Romulus.Logged.open_region r in
  let m = SM.create p ~root:0 in
  Alcotest.(check bool) "put new" true (SM.put m "alpha" "1");
  Alcotest.(check bool) "overwrite" false (SM.put m "alpha" "one");
  Alcotest.(check (option string)) "get" (Some "one") (SM.get m "alpha");
  Alcotest.(check (option string)) "absent" None (SM.get m "beta");
  ignore (SM.put m "" "empty key");
  Alcotest.(check (option string)) "empty key works" (Some "empty key")
    (SM.get m "");
  ignore (SM.put m "gamma" "");
  Alcotest.(check (option string)) "empty value works" (Some "")
    (SM.get m "gamma");
  Alcotest.(check bool) "remove" true (SM.remove m "alpha");
  Alcotest.(check (option string)) "gone" None (SM.get m "alpha");
  match SM.check m with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariant: %s" e

let test_strmap_binary_safe () =
  let r = region () in
  let p = Romulus.Logged.open_region r in
  let m = SM.create p ~root:0 in
  (* all byte values, including ones using the top bit of each word *)
  let key = String.init 17 (fun i -> Char.chr (i * 15 mod 256)) in
  let value = String.init 255 (fun i -> Char.chr (255 - i)) in
  ignore (SM.put m key value);
  Alcotest.(check (option string)) "binary round-trip" (Some value)
    (SM.get m key)

let test_strmap_resize_many () =
  let r = region () in
  let p = Romulus.Logged.open_region r in
  let m = SM.create ~initial_buckets:4 p ~root:0 in
  for i = 1 to 300 do
    ignore (SM.put m (Printf.sprintf "key%04d" i) (string_of_int i))
  done;
  Alcotest.(check int) "count" 300 (SM.length m);
  for i = 1 to 300 do
    Alcotest.(check (option string))
      (Printf.sprintf "get key%04d" i)
      (Some (string_of_int i))
      (SM.get m (Printf.sprintf "key%04d" i))
  done;
  match SM.check m with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariant: %s" e

let prop_strmap_model =
  let open QCheck in
  let keygen = Gen.map (fun n -> Printf.sprintf "k%d" (n mod 40)) Gen.nat in
  Test.make ~count:30 ~name:"string map vs model"
    (make
       ~print:(fun ops -> Printf.sprintf "<%d ops>" (List.length ops))
       Gen.(list (triple (int_bound 2) keygen string_small)))
    (fun ops ->
      let r = region () in
      let p = Romulus.Logged.open_region r in
      let m = SM.create ~initial_buckets:4 p ~root:0 in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (op, k, v) ->
          match op with
          | 0 ->
            ignore (SM.put m k v);
            Hashtbl.replace model k v
          | 1 ->
            ignore (SM.remove m k);
            Hashtbl.remove model k
          | _ ->
            if SM.get m k <> Hashtbl.find_opt model k then
              QCheck.Test.fail_reportf "get %S disagreed" k)
        ops;
      (match SM.check m with
       | Ok () -> ()
       | Error e -> QCheck.Test.fail_reportf "invariant: %s" e);
      let mine = SM.fold m (fun acc k v -> (k, v) :: acc) [] in
      let theirs = Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [] in
      List.sort compare mine = List.sort compare theirs)

(* ---- RomulusDB ---- *)

module Db = Kv.Romulus_db.Default

let test_db_basics () =
  let r = region () in
  let db = Db.open_db r in
  Db.put db "name" "romulus";
  Db.put db "year" "2018";
  Alcotest.(check (option string)) "get" (Some "romulus") (Db.get db "name");
  Alcotest.(check int) "count" 2 (Db.count db);
  Alcotest.(check bool) "delete" true (Db.delete db "name");
  Alcotest.(check (option string)) "deleted" None (Db.get db "name")

let test_db_durability_per_put () =
  let r = region () in
  let db = Db.open_db r in
  Db.put db "k1" "v1";
  Db.put db "k2" "v2";
  (* crash immediately: every completed put must survive *)
  R.crash r R.Drop_all;
  let db2 = Db.open_db r in
  Alcotest.(check (option string)) "k1 durable" (Some "v1") (Db.get db2 "k1");
  Alcotest.(check (option string)) "k2 durable" (Some "v2") (Db.get db2 "k2");
  Alcotest.(check int) "count preserved" 2 (Db.count db2)

let test_db_write_batch_atomic () =
  let r = region () in
  let db = Db.open_db r in
  Db.put db "balance_a" "100";
  Db.put db "balance_b" "0";
  (* a transfer as a write batch, crashed in the middle *)
  let transfer () =
    Db.write_batch db (fun db ->
        Db.put db "balance_a" "0";
        Db.put db "balance_b" "100")
  in
  if not (fst (Crash_driver.armed [| r |] (Trap (0, 25)) transfer)) then
    Alcotest.fail "trap did not fire";
  R.crash r R.Drop_all;
  let db2 = Db.open_db r in
  let a = Option.get (Db.get db2 "balance_a") in
  let b = Option.get (Db.get db2 "balance_b") in
  Alcotest.(check (pair string string))
    "batch is all-or-nothing" ("100", "0") (a, b)

let test_db_iter_orders_agree () =
  let r = region () in
  let db = Db.open_db r in
  for i = 1 to 50 do
    Db.put db (Printf.sprintf "k%02d" i) (string_of_int i)
  done;
  let fwd = ref [] and rev = ref [] in
  Db.iter db (fun k v -> fwd := (k, v) :: !fwd);
  Db.iter_reverse db (fun k v -> rev := (k, v) :: !rev);
  Alcotest.(check int) "both scans complete" 50 (List.length !fwd);
  Alcotest.(check bool) "same contents" true
    (List.sort compare !fwd = List.sort compare !rev)

(* ---- disk simulation ---- *)

let test_disk_sim_costs () =
  let d = Kv.Disk_sim.create ~write_ns_base:100 ~write_ns_per_16bytes:16
      ~fdatasync_ns:1000 () in
  ignore (Kv.Disk_sim.write d 160);
  Alcotest.(check int) "write cost" (100 + 160) (Kv.Disk_sim.vtime_ns d);
  Kv.Disk_sim.fdatasync d;
  Alcotest.(check int) "sync cost" (100 + 160 + 1000) (Kv.Disk_sim.vtime_ns d);
  Alcotest.(check int) "synced" 160 (Kv.Disk_sim.synced d)

let test_disk_sim_crash_loses_unsynced () =
  let d = Kv.Disk_sim.create () in
  ignore (Kv.Disk_sim.write d 100);
  Kv.Disk_sim.fdatasync d;
  ignore (Kv.Disk_sim.write d 50);
  let durable = Kv.Disk_sim.crash d in
  Alcotest.(check int) "only synced bytes survive" 100 durable

let test_disk_sim_crash_edges () =
  (* crash of a device that never wrote anything *)
  let d = Kv.Disk_sim.create () in
  Alcotest.(check int) "fresh device crash" 0 (Kv.Disk_sim.crash d);
  (* crash exactly at a sync boundary: nothing in flight, nothing lost *)
  ignore (Kv.Disk_sim.write d 64);
  Kv.Disk_sim.fdatasync d;
  Alcotest.(check int) "crash at boundary" 64 (Kv.Disk_sim.crash d);
  (* a second crash with no intervening writes is a no-op *)
  Alcotest.(check int) "double crash idempotent" 64 (Kv.Disk_sim.crash d);
  Alcotest.(check int) "appended rolled back to synced" 64
    (Kv.Disk_sim.appended d)

(* ---- LevelDB-like baseline ---- *)

let test_leveldb_basics () =
  let db = Kv.Level_db.create () in
  Kv.Level_db.put db "b" "2";
  Kv.Level_db.put db "a" "1";
  Kv.Level_db.put db "c" "3";
  Alcotest.(check (option string)) "get" (Some "2") (Kv.Level_db.get db "b");
  let order = ref [] in
  Kv.Level_db.iter db (fun k _ -> order := k :: !order);
  Alcotest.(check (list string)) "sorted iteration" [ "a"; "b"; "c" ]
    (List.rev !order);
  let rorder = ref [] in
  Kv.Level_db.iter_reverse db (fun k _ -> rorder := k :: !rorder);
  Alcotest.(check (list string)) "reverse iteration" [ "c"; "b"; "a" ]
    (List.rev !rorder);
  Kv.Level_db.delete db "b";
  Alcotest.(check (option string)) "deleted" None (Kv.Level_db.get db "b")

let test_leveldb_buffered_durability_loses_writes () =
  (* the paper's point: without WriteOptions.sync, a crash can lose a
     large batch of recently completed operations *)
  let db = Kv.Level_db.create ~sync_every_bytes:1_000_000 () in
  for i = 1 to 100 do
    Kv.Level_db.put db (Printf.sprintf "k%d" i) "payload"
  done;
  Kv.Level_db.crash db;
  Alcotest.(check int) "everything lost (never synced)" 0
    (Kv.Level_db.count db)

let test_leveldb_sync_mode_durable () =
  let db = Kv.Level_db.create () in
  Kv.Level_db.put ~sync:true db "k1" "v1";
  Kv.Level_db.put ~sync:true db "k2" "v2";
  Kv.Level_db.crash db;
  Alcotest.(check int) "synced writes survive" 2 (Kv.Level_db.count db);
  Alcotest.(check (option string)) "value intact" (Some "v1")
    (Kv.Level_db.get db "k1")

let test_leveldb_auto_sync_threshold () =
  let db = Kv.Level_db.create ~sync_every_bytes:1_000 () in
  (* each record is ~29 bytes; ~35 writes cross the 1 kB threshold *)
  for i = 1 to 100 do
    Kv.Level_db.put db (Printf.sprintf "key%05d" i) "0123456789AB"
  done;
  let syncs = Kv.Disk_sim.syncs (Kv.Level_db.disk db) in
  Alcotest.(check bool)
    (Printf.sprintf "periodic syncs happened (%d)" syncs)
    true
    (syncs >= 2 && syncs <= 10);
  Kv.Level_db.crash db;
  let survivors = Kv.Level_db.count db in
  Alcotest.(check bool)
    (Printf.sprintf "a synced prefix survives (%d)" survivors)
    true
    (survivors > 0 && survivors < 100);
  (* survivors must be exactly the first N puts *)
  let ok = ref true in
  for i = 1 to survivors do
    if Kv.Level_db.get db (Printf.sprintf "key%05d" i) = None then ok := false
  done;
  Alcotest.(check bool) "survivors form a prefix" true !ok

let test_leveldb_crash_empty_journal () =
  (* a crash before any write: the memtable is empty and stays usable *)
  let db = Kv.Level_db.create () in
  Kv.Level_db.crash db;
  Alcotest.(check int) "empty after empty crash" 0 (Kv.Level_db.count db);
  Kv.Level_db.put ~sync:true db "k" "v";
  Kv.Level_db.crash db;
  Alcotest.(check (option string)) "writes after recovery work" (Some "v")
    (Kv.Level_db.get db "k")

let test_leveldb_crash_exactly_at_sync_boundary () =
  (* records are 9 + |k| + |v| bytes; key "kN" + value "0123456789" is 21.
     With sync_every_bytes = 42, the threshold is reached *exactly* on
     every second put — the boundary write itself must be durable. *)
  let db = Kv.Level_db.create ~sync_every_bytes:42 () in
  for i = 1 to 5 do
    Kv.Level_db.put db (Printf.sprintf "k%d" i) "0123456789"
  done;
  Alcotest.(check int) "puts 2 and 4 synced" 2
    (Kv.Disk_sim.syncs (Kv.Level_db.disk db));
  Kv.Level_db.crash db;
  Alcotest.(check int) "exactly the synced prefix survives" 4
    (Kv.Level_db.count db);
  Alcotest.(check (option string)) "boundary record itself is durable"
    (Some "0123456789")
    (Kv.Level_db.get db "k4");
  Alcotest.(check (option string)) "first unsynced record is lost" None
    (Kv.Level_db.get db "k5")

let test_leveldb_replay_after_double_crash () =
  let db = Kv.Level_db.create ~sync_every_bytes:1_000_000 () in
  Kv.Level_db.put ~sync:true db "a" "1";
  Kv.Level_db.put ~sync:true db "b" "2";
  Kv.Level_db.delete ~sync:true db "a";
  Kv.Level_db.put db "lost" "never synced";
  Kv.Level_db.crash db;
  Alcotest.(check (option string)) "delete replayed" None
    (Kv.Level_db.get db "a");
  Alcotest.(check (option string)) "unsynced put lost" None
    (Kv.Level_db.get db "lost");
  (* keep going after the first recovery, then crash again: the journal
     prefix kept from crash #1 must still replay correctly under #2 *)
  Kv.Level_db.put ~sync:true db "c" "3";
  Kv.Level_db.put db "lost2" "never synced";
  Kv.Level_db.crash db;
  Alcotest.(check int) "second replay count" 2 (Kv.Level_db.count db);
  Alcotest.(check (option string)) "old record survives both crashes"
    (Some "2")
    (Kv.Level_db.get db "b");
  Alcotest.(check (option string)) "new record survives second crash"
    (Some "3")
    (Kv.Level_db.get db "c");
  Alcotest.(check (option string)) "unsynced put lost again" None
    (Kv.Level_db.get db "lost2")

(* ---- sorted store (blob red-black tree) ---- *)

module Sdb = Kv.Sorted_db.Default

let test_sorted_db_basics () =
  let r = region ~size:(1 lsl 19) () in
  let db = Sdb.open_db r in
  Sdb.put db "banana" "2";
  Sdb.put db "apple" "1";
  Sdb.put db "cherry" "3";
  Alcotest.(check (option string)) "get" (Some "2") (Sdb.get db "banana");
  let order = ref [] in
  Sdb.iter db (fun k _ -> order := k :: !order);
  Alcotest.(check (list string)) "sorted iteration"
    [ "apple"; "banana"; "cherry" ] (List.rev !order);
  let range = ref [] in
  Sdb.iter_range db ~lo:"apple" ~hi:"banana" (fun k _ -> range := k :: !range);
  Alcotest.(check (list string)) "range scan" [ "apple"; "banana" ]
    (List.rev !range);
  Alcotest.(check bool) "delete" true (Sdb.delete db "banana");
  Alcotest.(check (option string)) "deleted" None (Sdb.get db "banana");
  match Sdb.check db with Ok () -> () | Error e -> Alcotest.fail e

let test_sorted_db_durability () =
  let r = region ~size:(1 lsl 19) () in
  let db = Sdb.open_db r in
  for i = 0 to 199 do
    Sdb.put db (Printf.sprintf "key%04d" i) (string_of_int i)
  done;
  R.crash r R.Drop_all;
  let db = Sdb.open_db r in
  Alcotest.(check int) "all durable" 200 (Sdb.count db);
  (match Sdb.check db with Ok () -> () | Error e -> Alcotest.fail e);
  let keys = ref [] in
  Sdb.iter db (fun k _ -> keys := k :: !keys);
  Alcotest.(check (list string)) "sorted after reopen"
    (List.init 200 (fun i -> Printf.sprintf "key%04d" i))
    (List.rev !keys)

(* A same-length overwrite rewrites the value blob in place, so it never
   reaches the allocator: with every free armed to raise it still
   commits, while a different-length overwrite still frees the old blob
   (and aborts on the armed free, leaving the value untouched). *)
let test_sorted_db_inplace_overwrite () =
  let r = region ~size:(1 lsl 19) () in
  let db = Sdb.open_db r in
  Sdb.put db "k" "aaaa";
  Fun.protect ~finally:Fault.disarm (fun () ->
      Fault.arm "palloc.free.unlinked" (fun () ->
          raise (Fault.Injected "palloc.free.unlinked"));
      Sdb.put db "k" "bbbb";
      Alcotest.(check (option string)) "same length in place" (Some "bbbb")
        (Sdb.get db "k");
      (match Sdb.put db "k" "a longer value" with
       | () -> Alcotest.fail "different-length overwrite did not free"
       | exception Romulus.Engine.Tx_aborted { cause = Fault.Injected _; _ }
         ->
         ());
      Alcotest.(check (option string)) "aborted overwrite invisible"
        (Some "bbbb") (Sdb.get db "k"));
  Sdb.put db "k" "a longer value";
  Alcotest.(check (option string)) "different length reallocated"
    (Some "a longer value") (Sdb.get db "k");
  match Sdb.check db with Ok () -> () | Error e -> Alcotest.fail e

(* ---- golden images ---- *)

(* One fixed op sequence per store, pinned by the digest of the
   persistent image it leaves and by the exact region access counts it
   costs (Golden_image): inserts (through bucket doublings / rebalancing),
   same-length and different-length overwrites, removes of present and
   absent keys, and inserts after the removes.  The romulusdb loads fell
   3019 -> 2952 when the blob codec's [equal_at] stopped reloading the
   length word it had just read (67 length-matching key compares). *)
let golden_ops ~put ~delete =
  let key i = Printf.sprintf "key%03d" i in
  for i = 0 to 39 do put (key i) (Printf.sprintf "v%03d" i) done;
  for i = 0 to 9 do put (key i) (Printf.sprintf "w%03d" i) done;
  for i = 10 to 14 do put (key i) (String.make i 'x') done;
  for i = 10 to 19 do ignore (delete (key (3 * i)) : bool) done;
  for i = 40 to 44 do put (key i) (Printf.sprintf "v%03d" i) done

let test_db_golden () =
  Golden_image.check "romulusdb"
    ("ffcaa4cc46468d00bc5a001a6e3af65a",
     "loads=2952 stores=1542 copies=435 pwbs=1336 pfences=215") (fun r ->
      let db = Db.open_db ~initial_buckets:4 r in
      golden_ops ~put:(Db.put db) ~delete:(Db.delete db))

let test_sorted_db_golden () =
  Golden_image.check "sorted db"
    ("13ddc1ff7f834afcdac510de91bc220a",
     "loads=4942 stores=1871 copies=658 pwbs=1975 pfences=215") (fun r ->
      let db = Sdb.open_db r in
      golden_ops ~put:(Sdb.put db) ~delete:(Sdb.delete db))

(* A sorted db get hit on 1,000 keys (9-byte keys, 100-byte value):
   every node the descent visits compares its stored key in place
   ([Codec.Blob.compare_at] through [P.compare_bytes]), so the descent
   allocates nothing.  It cost 61 minor words when each compare copied
   the stored key out and the descent was a local closure; 22 now: the
   16-word answer (the value string, 14 words with its header, and its
   [Some], 2) and the 6-word [read_tx] closure of [Rb_tree.get]
   (header, code pointer, closure info, and the captured [t], [k] and
   [lookup]). *)
let test_sorted_db_get_allocation () =
  let db = Sdb.open_db (region ~size:(1 lsl 21) ()) in
  let v = String.make 100 'v' in
  for i = 0 to 999 do
    Sdb.put db (Printf.sprintf "key%06d" i) v
  done;
  let k = "key000421" in
  Alcotest.(check (option string)) "hit" (Some v) (Sdb.get db k);
  let get () = ignore (Sdb.get db k) in
  for _ = 1 to 100 do get () done;
  let n = 1_000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do get () done;
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  if words > 22. then
    Alcotest.failf "Sorted_db.get hit: %.1f minor words, at most 22 expected"
      words

let prop_sorted_db_model =
  let open QCheck in
  let keygen = Gen.map (fun n -> Printf.sprintf "k%03d" (n mod 60)) Gen.nat in
  Test.make ~count:30 ~name:"sorted db vs model"
    (make
       ~print:(fun ops -> Printf.sprintf "<%d ops>" (List.length ops))
       Gen.(list (triple (int_bound 2) keygen string_small)))
    (fun ops ->
      let r = region ~size:(1 lsl 20) () in
      let db = Sdb.open_db r in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (op, k, v) ->
          match op with
          | 0 ->
            Sdb.put db k v;
            Hashtbl.replace model k v
          | 1 ->
            ignore (Sdb.delete db k);
            Hashtbl.remove model k
          | _ ->
            if Sdb.get db k <> Hashtbl.find_opt model k then
              QCheck.Test.fail_reportf "get %S disagreed" k)
        ops;
      (match Sdb.check db with
       | Ok () -> ()
       | Error e -> QCheck.Test.fail_reportf "invariant: %s" e);
      let mine = ref [] in
      Sdb.iter db (fun k v -> mine := (k, v) :: !mine);
      let theirs =
        List.sort compare (Hashtbl.fold (fun k v a -> (k, v) :: a) model [])
      in
      List.rev !mine = theirs)

let prop_sorted_db_crash =
  let open QCheck in
  Test.make ~count:30 ~name:"sorted db crash atomicity"
    (pair small_nat (int_bound 2))
    (fun (trap, pol) ->
      let r = region ~size:(1 lsl 19) () in
      let db = Sdb.open_db r in
      for i = 0 to 39 do
        Sdb.put db (Printf.sprintf "k%03d" i) "committed"
      done;
      ignore
        (Crash_driver.armed [| r |] (Trap (0, 5 + trap)) (fun () ->
             for i = 40 to 80 do
               Sdb.put db (Printf.sprintf "k%03d" i) "maybe"
             done));
      let policy =
        match pol with
        | 0 -> R.Drop_all
        | 1 -> R.Keep_all
        | n -> R.Random_subset (n + trap)
      in
      R.crash r policy;
      let db = Sdb.open_db r in
      (match Sdb.check db with
       | Ok () -> ()
       | Error e -> QCheck.Test.fail_reportf "invariant after crash: %s" e);
      (* puts are sequential and atomic: survivors are a prefix *)
      let keys = ref [] in
      Sdb.iter db (fun k _ -> keys := k :: !keys);
      let keys = List.rev !keys in
      keys = List.init (List.length keys) (fun i -> Printf.sprintf "k%03d" i)
      && List.length keys >= 40)

(* ---- crash injection on the string KV store ---- *)

(* A put is crashed at a random instruction boundary with a random policy;
   after reopening, the database is exactly pre-put or exactly post-put,
   never a hybrid, and the structure passes its checks. *)
let prop_db_crash_atomicity =
  let open QCheck in
  Test.make ~count:60 ~name:"romulusdb: crashed put is atomic"
    (pair small_nat (int_bound 2))
    (fun (trap, pol) ->
      let r = region ~size:(1 lsl 18) () in
      let db = Db.open_db ~initial_buckets:8 r in
      for i = 1 to 10 do
        Db.put db (Printf.sprintf "k%02d" i) (String.make 20 'a')
      done;
      let committed =
        Option.is_some
          (snd
             (Crash_driver.armed [| r |] (Trap (0, trap)) (fun () ->
                  Db.put db "victim" (String.make 40 'B'))))
      in
      let policy =
        match pol with
        | 0 -> R.Drop_all
        | 1 -> R.Keep_all
        | _ -> R.Random_subset (trap + 1)
      in
      R.crash r policy;
      let db = Db.open_db r in
      (match Db.check db with
       | Ok () -> ()
       | Error e -> QCheck.Test.fail_reportf "structure broken: %s" e);
      (* the 10 committed entries are always intact *)
      for i = 1 to 10 do
        if Db.get db (Printf.sprintf "k%02d" i) <> Some (String.make 20 'a')
        then QCheck.Test.fail_reportf "lost committed key k%02d" i
      done;
      match Db.get db "victim" with
      | Some v when v = String.make 40 'B' -> true
      | Some v -> QCheck.Test.fail_reportf "torn value %S" v
      | None -> (not committed) || QCheck.Test.fail_report "lost committed put")

(* Deletes and overwrites under crashes keep count and contents coherent. *)
let prop_db_crash_overwrite_delete =
  let open QCheck in
  Test.make ~count:40 ~name:"romulusdb: crashed overwrite/delete is atomic"
    (triple small_nat (int_bound 2) bool)
    (fun (trap, pol, do_delete) ->
      let r = region ~size:(1 lsl 18) () in
      let db = Db.open_db ~initial_buckets:8 r in
      Db.put db "x" "old-value";
      ignore
        (Crash_driver.armed [| r |] (Trap (0, trap)) (fun () ->
             if do_delete then ignore (Db.delete db "x")
             else Db.put db "x" "new-value"));
      let policy =
        match pol with
        | 0 -> R.Drop_all
        | 1 -> R.Keep_all
        | _ -> R.Random_subset (trap + 9)
      in
      R.crash r policy;
      let db = Db.open_db r in
      (match Db.check db with
       | Ok () -> ()
       | Error e -> QCheck.Test.fail_reportf "structure broken: %s" e);
      match Db.get db "x" with
      | Some "old-value" -> true
      | Some "new-value" -> not do_delete
      | Some v -> QCheck.Test.fail_reportf "torn value %S" v
      | None -> do_delete)

(* ---- transient read faults: bounded retry, typed exhaustion ---- *)

let test_disk_sim_read_faults_retry () =
  let d = Kv.Disk_sim.create ~read_backoff_ns:1_000 () in
  (* rate 0 (the default): reads never retry and cost exactly [ns] *)
  Kv.Disk_sim.read d 600;
  Alcotest.(check int) "clean read cost" 600 (Kv.Disk_sim.vtime_ns d);
  Alcotest.(check int) "no retries" 0 (Kv.Disk_sim.read_retries d);
  (* rate 1: every attempt faults, so the read exhausts its budget of 6
     attempts, charges 5 exponential backoffs, and raises typed *)
  Kv.Disk_sim.reset_vtime d;
  Kv.Disk_sim.set_read_faults d ~seed:7 ~rate:1.0;
  (match Kv.Disk_sim.read d 600 with
   | () -> Alcotest.fail "rate-1.0 read cannot succeed"
   | exception Kv.Disk_sim.Read_failed { attempts } ->
     Alcotest.(check int) "budget exhausted" 6 attempts);
  let backoffs = 1_000 * (1 + 2 + 4 + 8 + 16) in
  Alcotest.(check int) "attempts + backoffs charged"
    ((6 * 600) + backoffs)
    (Kv.Disk_sim.vtime_ns d);
  (* a moderate rate: reads keep succeeding, with some retries, and the
     retry count is deterministic per seed *)
  let retries_with seed =
    let d = Kv.Disk_sim.create () in
    Kv.Disk_sim.set_read_faults d ~seed ~rate:0.3;
    for _ = 1 to 200 do
      Kv.Disk_sim.read d 600
    done;
    Kv.Disk_sim.read_retries d
  in
  let r1 = retries_with 42 in
  Alcotest.(check bool) "flaky reads retried" true (r1 > 0);
  Alcotest.(check int) "deterministic per seed" r1 (retries_with 42);
  (* disarming restores fault-free reads *)
  Kv.Disk_sim.clear_read_faults d;
  Kv.Disk_sim.read d 600;
  Alcotest.(check bool) "invalid rate rejected" true
    (match Kv.Disk_sim.set_read_faults d ~seed:1 ~rate:1.5 with
     | () -> false
     | exception Invalid_argument _ -> true)

let test_leveldb_reads_survive_flaky_disk () =
  let db = Kv.Level_db.create () in
  for i = 0 to 49 do
    Kv.Level_db.put db (Printf.sprintf "k%02d" i) (string_of_int i)
  done;
  Kv.Disk_sim.set_read_faults (Kv.Level_db.disk db) ~seed:11 ~rate:0.3;
  for i = 0 to 49 do
    Alcotest.(check (option string))
      (Printf.sprintf "get k%02d" i)
      (Some (string_of_int i))
      (Kv.Level_db.get db (Printf.sprintf "k%02d" i))
  done;
  let n = ref 0 in
  Kv.Level_db.iter db (fun _ _ -> incr n);
  Alcotest.(check int) "scan complete despite faults" 50 !n;
  Alcotest.(check bool) "faults actually fired" true
    (Kv.Disk_sim.read_retries (Kv.Level_db.disk db) > 0);
  (* a dead device surfaces as the typed error, not missing data *)
  Kv.Disk_sim.set_read_faults (Kv.Level_db.disk db) ~seed:11 ~rate:1.0;
  match Kv.Level_db.get db "k00" with
  | exception Kv.Disk_sim.Read_failed { attempts = 6 } -> ()
  | _ -> Alcotest.fail "dead device must raise Read_failed"

let suite =
  let tc = Alcotest.test_case in
  [ tc "strmap basics" `Quick test_strmap_basics;
    tc "strmap binary safety" `Quick test_strmap_binary_safe;
    tc "strmap resize" `Quick test_strmap_resize_many;
    tc "romulusdb basics" `Quick test_db_basics;
    tc "romulusdb per-put durability" `Quick test_db_durability_per_put;
    tc "romulusdb atomic write batch" `Quick test_db_write_batch_atomic;
    tc "romulusdb scan orders" `Quick test_db_iter_orders_agree;
    tc "disk sim costs" `Quick test_disk_sim_costs;
    tc "disk sim crash" `Quick test_disk_sim_crash_loses_unsynced;
    tc "disk sim crash edges" `Quick test_disk_sim_crash_edges;
    tc "disk sim transient read faults" `Quick
      test_disk_sim_read_faults_retry;
    tc "leveldb reads survive flaky disk" `Quick
      test_leveldb_reads_survive_flaky_disk;
    tc "leveldb basics" `Quick test_leveldb_basics;
    tc "leveldb buffered durability" `Quick
      test_leveldb_buffered_durability_loses_writes;
    tc "leveldb sync mode" `Quick test_leveldb_sync_mode_durable;
    tc "leveldb auto-sync threshold" `Quick test_leveldb_auto_sync_threshold;
    tc "leveldb crash with empty journal" `Quick
      test_leveldb_crash_empty_journal;
    tc "leveldb crash at sync boundary" `Quick
      test_leveldb_crash_exactly_at_sync_boundary;
    tc "leveldb replay after double crash" `Quick
      test_leveldb_replay_after_double_crash ]
  @ [ Alcotest.test_case "sorted db basics" `Quick test_sorted_db_basics;
      Alcotest.test_case "sorted db durability" `Quick
        test_sorted_db_durability;
      Alcotest.test_case "sorted db same-length overwrite in place" `Quick
        test_sorted_db_inplace_overwrite;
      Alcotest.test_case "romulusdb golden image" `Quick test_db_golden;
      Alcotest.test_case "sorted db golden image" `Quick test_sorted_db_golden ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_strmap_model; prop_db_crash_atomicity;
        prop_db_crash_overwrite_delete; prop_sorted_db_model;
        prop_sorted_db_crash ]
  @ [ Alcotest.test_case "sorted db get allocation pin" `Quick
        test_sorted_db_get_allocation ]

let () = Alcotest.run "kv" [ ("kv", suite) ]
