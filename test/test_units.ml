(* Unit tests for the smaller supporting modules: the volatile redo log,
   fence profiles, workload generation, the engine's commit decomposition
   and RomulusLR's synthetic-pointer bookkeeping. *)

(* ---- Redo_log ---- *)

let entries_of l =
  let acc = ref [] in
  Romulus.Redo_log.iter l (fun ~off ~len -> acc := (off, len) :: !acc);
  List.rev !acc

let test_redo_log_basics () =
  let l = Romulus.Redo_log.create () in
  Alcotest.(check bool) "empty" true (Romulus.Redo_log.is_empty l);
  Romulus.Redo_log.add l ~off:64 ~len:8;
  Romulus.Redo_log.add l ~off:128 ~len:8;
  Alcotest.(check int) "two entries" 2 (Romulus.Redo_log.entries l);
  Alcotest.(check (list (pair int int))) "order preserved"
    [ (64, 8); (128, 8) ] (entries_of l);
  Alcotest.(check int) "bytes" 16 (Romulus.Redo_log.bytes l)

let test_redo_log_dedup () =
  let l = Romulus.Redo_log.create () in
  for _ = 1 to 1_000 do
    Romulus.Redo_log.add l ~off:64 ~len:8
  done;
  Alcotest.(check int) "word stores dedup" 1 (Romulus.Redo_log.entries l);
  (* ranges are appended as-is *)
  Romulus.Redo_log.add l ~off:64 ~len:16;
  Romulus.Redo_log.add l ~off:64 ~len:16;
  Alcotest.(check int) "ranges append" 3 (Romulus.Redo_log.entries l)

let test_redo_log_clear_resets_dedup () =
  let l = Romulus.Redo_log.create () in
  Romulus.Redo_log.add l ~off:8 ~len:8;
  Romulus.Redo_log.clear l;
  Alcotest.(check bool) "cleared" true (Romulus.Redo_log.is_empty l);
  Romulus.Redo_log.add l ~off:8 ~len:8;
  Alcotest.(check int) "dedup forgets cleared entries" 1
    (Romulus.Redo_log.entries l)

let test_redo_log_growth () =
  let l = Romulus.Redo_log.create () in
  for i = 0 to 9_999 do
    Romulus.Redo_log.add l ~off:(8 * i) ~len:8
  done;
  Alcotest.(check int) "ten thousand entries" 10_000
    (Romulus.Redo_log.entries l);
  Alcotest.(check int) "bytes" 80_000 (Romulus.Redo_log.bytes l)

let test_redo_log_zero_len_ignored () =
  let l = Romulus.Redo_log.create () in
  Romulus.Redo_log.add l ~off:0 ~len:0;
  Alcotest.(check bool) "zero-length ranges dropped" true
    (Romulus.Redo_log.is_empty l)

(* The open-addressed dedup table: grows past its initial size without
   losing membership, handles offset 0, and forgets everything on clear
   (including after a transaction large enough to force a shrink). *)
let test_redo_log_dedup_table_growth () =
  let l = Romulus.Redo_log.create () in
  let n = 5_000 in
  for i = 0 to n - 1 do
    Romulus.Redo_log.add l ~off:(8 * i) ~len:8
  done;
  Alcotest.(check int) "all distinct words logged" n
    (Romulus.Redo_log.entries l);
  (* a second pass over every offset is fully deduplicated, across the
     table resizes the first pass forced *)
  for i = 0 to n - 1 do
    Romulus.Redo_log.add l ~off:(8 * i) ~len:8
  done;
  Alcotest.(check int) "second pass fully deduplicated" n
    (Romulus.Redo_log.entries l);
  Romulus.Redo_log.clear l;
  Alcotest.(check bool) "cleared" true (Romulus.Redo_log.is_empty l);
  (* after the clear (which may shrink the table) dedup still works *)
  for _ = 1 to 3 do
    Romulus.Redo_log.add l ~off:0 ~len:8;
    Romulus.Redo_log.add l ~off:8 ~len:8
  done;
  Alcotest.(check (list (pair int int))) "offset 0 deduplicates too"
    [ (0, 8); (8, 8) ] (entries_of l)

(* Random word/range adds behave exactly like a Hashtbl-based model. *)
let prop_redo_log_dedup_model =
  let open QCheck in
  Test.make ~count:300 ~name:"redo log: dedup matches hashtable model"
    (list (pair (int_bound 2_000) (int_bound 3)))
    (fun adds ->
      let l = Romulus.Redo_log.create () in
      let model = Hashtbl.create 64 in
      let expected = ref [] in
      List.iter
        (fun (word, kind) ->
          let off = 8 * word in
          match kind with
          | 0 | 1 ->
            Romulus.Redo_log.add l ~off ~len:8;
            if not (Hashtbl.mem model off) then begin
              Hashtbl.add model off ();
              expected := (off, 8) :: !expected
            end
          | 2 ->
            Romulus.Redo_log.add l ~off ~len:24;
            expected := (off, 24) :: !expected
          | _ ->
            Romulus.Redo_log.add l ~off ~len:0)
        adds;
      entries_of l = List.rev !expected)

(* ---- Redo_log.coalesce ---- *)

let test_coalesce_merges_adjacent () =
  let l = Romulus.Redo_log.create () in
  Romulus.Redo_log.add l ~off:72 ~len:8;
  Romulus.Redo_log.add l ~off:64 ~len:8;
  Romulus.Redo_log.add l ~off:80 ~len:8;
  Romulus.Redo_log.coalesce l;
  Alcotest.(check (list (pair int int))) "adjacent words merge and sort"
    [ (64, 24) ] (entries_of l)

let test_coalesce_merges_overlap_and_containment () =
  let l = Romulus.Redo_log.create () in
  Romulus.Redo_log.add l ~off:100 ~len:50;
  Romulus.Redo_log.add l ~off:120 ~len:10;   (* contained *)
  Romulus.Redo_log.add l ~off:140 ~len:40;   (* overlapping tail *)
  Romulus.Redo_log.add l ~off:300 ~len:8;    (* disjoint *)
  Romulus.Redo_log.coalesce l;
  Alcotest.(check (list (pair int int))) "overlaps collapse"
    [ (100, 80); (300, 8) ] (entries_of l)

let test_coalesce_keeps_disjoint_and_is_idempotent () =
  let l = Romulus.Redo_log.create () in
  Romulus.Redo_log.add l ~off:200 ~len:8;
  Romulus.Redo_log.add l ~off:64 ~len:8;
  (* a one-byte gap is NOT adjacency: the ranges must stay separate *)
  Romulus.Redo_log.add l ~off:73 ~len:7;
  Romulus.Redo_log.coalesce l;
  let once = entries_of l in
  Alcotest.(check (list (pair int int))) "gap preserved"
    [ (64, 8); (73, 7); (200, 8) ] once;
  Romulus.Redo_log.coalesce l;
  Alcotest.(check (list (pair int int))) "idempotent" once (entries_of l);
  Romulus.Redo_log.clear l;
  Romulus.Redo_log.coalesce l;
  Alcotest.(check bool) "empty log is a no-op" true
    (Romulus.Redo_log.is_empty l)

(* The reference plan: a stable list sort by offset, then one fold that
   fuses every overlapping or adjacent pair — the sort-then-merge
   [coalesce] always specified, written with no shared code. *)
let coalesce_model ranges =
  List.stable_sort (fun (a, _) (b, _) -> compare a b) ranges
  |> List.fold_left
       (fun acc (off, len) ->
         match acc with
         | (o, l) :: tl when off <= o + l -> (o, max l (off + len - o)) :: tl
         | _ -> (off, len) :: acc)
       []
  |> List.rev

(* Logs of up to 2,000 ranges in the shapes commits produce: ascending
   frontier fills (and a few stray metadata stores among them),
   descending, random words and records, duplicate offsets with unequal
   lengths, small ranges inside large ones, blob-sized ranges up to
   4 KiB, and the short low-offset logs of a single operation. *)
let coalesce_case =
  let gen st =
    let int b = Random.State.int st b in
    let ascending n =
      let stride = 8 * (1 + int 8) in
      List.init n (fun i -> (64 + (i * stride), 1 + int stride))
    in
    match int 8 with
    | 0 -> ("ascending", ascending (1 + int 2000))
    | 1 -> ("descending", List.rev (ascending (1 + int 2000)))
    | 2 ->
      ( "nearly ascending",
        List.map
          (fun r -> if int 20 = 0 then (8 * int 8192, 8) else r)
          (ascending (1 + int 2000)) )
    | 3 ->
      ( "random",
        List.init (1 + int 2000) (fun _ ->
            (8 * int 65536, if int 2 = 0 then 8 else 1 + int 64)) )
    | 4 ->
      ( "duplicate offsets",
        List.init (1 + int 2000) (fun _ ->
            (8 * int 32, if int 2 = 0 then 8 else 1 + int 40)) )
    | 5 ->
      ( "contained",
        List.init (1 + int 2000) (fun i ->
            if i mod 16 = 0 then (int 65536, 1 + int 4096)
            else (int 65536, 1 + int 16)) )
    | 6 ->
      ( "blobs",
        List.init (1 + int 2000) (fun _ -> (int (1 lsl 20), 1 + int 4096)) )
    | _ ->
      ("short", List.init (1 + int 40) (fun _ -> (int 501, 1 + int 64)))
  in
  QCheck.make gen ~print:(fun (shape, ranges) ->
      Printf.sprintf "%s, %d ranges: %s" shape (List.length ranges)
        (String.concat " "
           (List.map (fun (o, l) -> Printf.sprintf "(%d,%d)" o l) ranges)))

(* Property: coalescing yields exactly the reference plan — a sorted list
   of pairwise disjoint, non-adjacent intervals covering exactly the
   union of the added ranges. *)
let coalesce_prop =
  QCheck.Test.make ~count:400 ~name:"redo log: coalesce covers the union"
    coalesce_case
    (fun (_, ranges) ->
      let l = Romulus.Redo_log.create () in
      List.iter (fun (off, len) -> Romulus.Redo_log.add l ~off ~len) ranges;
      Romulus.Redo_log.coalesce l;
      let out = entries_of l in
      (* sorted, disjoint, non-adjacent *)
      let rec well_formed = function
        | (o1, l1) :: ((o2, _) :: _ as tl) ->
          o1 + l1 < o2 && well_formed tl
        | [ _ ] | [] -> true
      in
      if not (well_formed out) then
        QCheck.Test.fail_report "output not sorted/disjoint/non-adjacent";
      (* exact byte-set cover *)
      let bound =
        List.fold_left (fun m (off, len) -> max m (off + len)) 0 ranges
      in
      let mark ranges =
        let bs = Bytes.make bound '\000' in
        List.iter (fun (off, len) -> Bytes.fill bs off len '\001') ranges;
        bs
      in
      if not (Bytes.equal (mark ranges) (mark out)) then
        QCheck.Test.fail_report "output does not cover exactly the union";
      if out <> coalesce_model ranges then
        QCheck.Test.fail_report "output differs from the reference plan";
      true)

(* Coalescing sorts and merges in place: 10,000 refills and coalesces of
   a 256-entry log (scattered words, short records and blob ranges)
   allocate nothing once the log's arrays have grown. *)
let test_coalesce_allocates_nothing () =
  let n = 256 in
  let st = Random.State.make [| 7 |] in
  let offs =
    Array.init n (fun _ -> 8 * Random.State.int st 8192)
  and lens =
    Array.init n (fun i ->
        match i mod 4 with
        | 0 | 1 -> 8
        | 2 -> 1 + Random.State.int st 64
        | _ -> 1 + Random.State.int st 4096)
  in
  let l = Romulus.Redo_log.create () in
  let round () =
    Romulus.Redo_log.clear l;
    for i = 0 to n - 1 do
      Romulus.Redo_log.add l ~off:offs.(i) ~len:lens.(i)
    done;
    Romulus.Redo_log.coalesce l
  in
  round ();
  let calls = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    round ()
  done;
  let words = Gc.minor_words () -. before in
  if words >= float_of_int calls then
    Alcotest.failf "%.0f minor words for %d coalesces" words calls

(* Each store marks its line dirty; commit_main write-backs every dirty
   line exactly once, so a transaction pays one pwb per line it touched,
   however many stores it issued into that line. *)
let test_deferred_flush_fewer_pwbs () =
  let r = Pmem.Region.create ~size:(1 lsl 16) () in
  let e = Romulus.Engine.create ~mode:Romulus.Engine.Logged r in
  let s = Pmem.Region.stats r in
  let pwbs tx =
    let before = Pmem.Stats.snapshot s in
    Romulus.Engine.begin_tx e;
    tx ();
    Romulus.Engine.end_tx e;
    (Pmem.Stats.since ~now:s ~past:before).Pmem.Stats.pwbs
  in
  let first =
    pwbs (fun () ->
        let obj = Romulus.Engine.alloc e 64 in
        for i = 0 to 7 do
          Romulus.Engine.store e (obj + (8 * i)) (100 + i)
        done;
        Romulus.Engine.set_root e 0 obj)
  in
  Alcotest.(check int) "pwbs of the allocating tx" 12 first;
  Pmem.Region.crash r Pmem.Region.Drop_all;
  Romulus.Engine.recover e;
  Alcotest.(check int) "durable" 107
    (Romulus.Engine.load e (Romulus.Engine.get_root e 0 + 56));
  (* differential: eight stores into one line cost what one store does *)
  let line = Pmem.Region.line_size r in
  let obj = ref 0 in
  ignore (pwbs (fun () -> obj := Romulus.Engine.alloc e (2 * line)) : int);
  let base = (!obj + line - 1) land lnot (line - 1) in
  let stores n () =
    for i = 0 to n - 1 do
      Romulus.Engine.store e (base + (8 * i)) i
    done
  in
  Alcotest.(check int) "8 stores into one line = 1 store" (pwbs (stores 1))
    (pwbs (stores 8))

(* In Logged mode, replicate coalesces the redo log first: adjacent word
   entries collapse, so it does one copy per maximal interval. *)
let test_coalesced_replication_fewer_copies () =
  let r = Pmem.Region.create ~size:(1 lsl 16) () in
  let e = Romulus.Engine.create ~mode:Romulus.Engine.Logged r in
  Romulus.Engine.begin_tx e;
  let obj = Romulus.Engine.alloc e 64 in
  Romulus.Engine.set_root e 0 obj;
  Romulus.Engine.end_tx e;
  let s = Pmem.Region.stats r in
  let before = Pmem.Stats.snapshot s in
  Romulus.Engine.begin_tx e;
  for i = 0 to 7 do
    Romulus.Engine.store e (obj + (8 * i)) i
  done;
  Romulus.Engine.end_tx e;
  Alcotest.(check int) "one copy for the whole interval" 1
    (Pmem.Stats.since ~now:s ~past:before).Pmem.Stats.copy_calls

(* Crash-point sweep over the commit path: whatever the schedule of
   deferred pwbs and coalesced copies, every crash point must recover to
   either the pre- or post-state. *)
let test_engine_crash_sweep () =
  let fresh () =
    let r = Pmem.Region.create ~size:(1 lsl 16) () in
    let e = Romulus.Engine.create ~mode:Romulus.Engine.Logged r in
    Romulus.Engine.begin_tx e;
    let obj = Romulus.Engine.alloc e 128 in
    Romulus.Engine.store e obj 1;
    Romulus.Engine.store e (obj + 64) 2;
    Romulus.Engine.set_root e 0 obj;
    Romulus.Engine.end_tx e;
    ([| r |], (e, obj))
  in
  ignore
    (Crash_driver.sweep ~name:"commit-path crash sweep"
       ~policy:(fun k -> Pmem.Region.Random_subset (k + 3))
       ~fresh
       ~op:(fun (e, obj) ->
         Romulus.Engine.begin_tx e;
         Romulus.Engine.store e obj 10;
         Romulus.Engine.store e (obj + 8) 11;
         Romulus.Engine.store e (obj + 64) 20;
         Romulus.Engine.end_tx e)
       (fun k (e, _) _ ->
         Romulus.Engine.recover e;
         let base = Romulus.Engine.get_root e 0 in
         let g d = Romulus.Engine.load e (base + d) in
         match (g 0, g 8, g 64) with
         | 1, _, 2 -> () (* rolled back *)
         | 10, 11, 20 -> () (* committed *)
         | a, b, c ->
           Alcotest.failf "point %d: torn state (%d, %d, %d)" k a b c)
      : int)

(* ---- Fence profiles ---- *)

let test_fence_by_name () =
  List.iter
    (fun p ->
      Alcotest.(check string) "round-trips" p.Pmem.Fence.name
        (Pmem.Fence.by_name p.Pmem.Fence.name).Pmem.Fence.name)
    Pmem.Fence.all;
  Alcotest.check_raises "unknown profile"
    (Invalid_argument "Fence.by_name: unknown profile optane") (fun () ->
      ignore (Pmem.Fence.by_name "optane"))

let test_fence_semantics_flags () =
  Alcotest.(check bool) "clflush is ordered" true
    Pmem.Fence.clflush.Pmem.Fence.ordered_pwb;
  Alcotest.(check bool) "clwb is not" false
    Pmem.Fence.clwb.Pmem.Fence.ordered_pwb;
  Alcotest.(check bool) "pcm slower than stt" true
    (Pmem.Fence.pcm.Pmem.Fence.pwb_ns > Pmem.Fence.stt.Pmem.Fence.pwb_ns)

(* ---- Keygen ---- *)

let test_keygen_deterministic () =
  let draw () =
    let g = Workload.Keygen.create ~seed:123 () in
    List.init 20 (fun _ -> Workload.Keygen.int g 1_000)
  in
  Alcotest.(check (list int)) "same seed, same stream" (draw ()) (draw ())

let test_keygen_bounds () =
  let g = Workload.Keygen.create () in
  for _ = 1 to 10_000 do
    let v = Workload.Keygen.int g 7 in
    if v < 0 || v >= 7 then Alcotest.failf "out of bounds: %d" v
  done

let test_keygen_spread () =
  (* all buckets of a small range get hit *)
  let g = Workload.Keygen.create ~seed:5 () in
  let seen = Array.make 16 0 in
  for _ = 1 to 10_000 do
    let v = Workload.Keygen.int g 16 in
    seen.(v) <- seen.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      if c < 300 then Alcotest.failf "bucket %d starved: %d hits" i c)
    seen

let test_level_key_format () =
  Alcotest.(check int) "16 bytes" 16 (String.length (Workload.Keygen.level_key 7));
  Alcotest.(check string) "zero padded" "0000000000000042"
    (Workload.Keygen.level_key 42);
  Alcotest.(check bool) "ordered" true
    (Workload.Keygen.level_key 9 < Workload.Keygen.level_key 10)

(* ---- engine decomposition (commit_main / replicate / finish_tx) ---- *)

let test_engine_decomposed_commit () =
  let r = Pmem.Region.create ~size:(1 lsl 16) () in
  let e = Romulus.Engine.create ~mode:Romulus.Engine.Logged r in
  Romulus.Engine.begin_tx e;
  let obj = Romulus.Engine.alloc e 16 in
  Romulus.Engine.store e obj 5;
  Romulus.Engine.set_root e 0 obj;
  Romulus.Engine.commit_main e;
  (* after commit_main the effects are durable on main even though back
     has not been updated yet *)
  Pmem.Region.crash r Pmem.Region.Drop_all;
  Romulus.Engine.recover e;
  Alcotest.(check int) "durable after commit_main" 5
    (Romulus.Engine.load e (Romulus.Engine.get_root e 0))

let test_engine_used_span_grows () =
  let r = Pmem.Region.create ~size:(1 lsl 16) () in
  let e = Romulus.Engine.create ~mode:Romulus.Engine.Logged r in
  let s0 = Romulus.Engine.used_span e in
  Romulus.Engine.begin_tx e;
  ignore (Romulus.Engine.alloc e 4096);
  Romulus.Engine.end_tx e;
  Alcotest.(check bool) "span grew by at least the allocation" true
    (Romulus.Engine.used_span e >= s0 + 4096)

let test_engine_mode_accessors () =
  let r = Pmem.Region.create ~size:(1 lsl 16) () in
  let e = Romulus.Engine.create ~mode:Romulus.Engine.Full_copy r in
  Alcotest.(check bool) "mode" true
    (Romulus.Engine.mode e = Romulus.Engine.Full_copy);
  Alcotest.(check bool) "main_size positive" true
    (Romulus.Engine.main_size e > 0);
  Alcotest.(check bool) "not in tx" false (Romulus.Engine.in_tx e)

let test_engine_rejects_nested_begin () =
  let r = Pmem.Region.create ~size:(1 lsl 16) () in
  let e = Romulus.Engine.create ~mode:Romulus.Engine.Logged r in
  Romulus.Engine.begin_tx e;
  (match Romulus.Engine.begin_tx e with
   | exception Invalid_argument _ -> ()
   | () -> Alcotest.fail "nested begin_tx must raise");
  Romulus.Engine.end_tx e

(* A transaction that shrinks the allocation frontier (freeing the chunk
   adjacent to top) must stay crash-atomic in both engine modes: recovery
   sizes its raw copy from the consistent copy's frontier, which differs
   before and after the transaction. *)
let test_engine_shrinking_top_crash_atomic mode () =
  let fresh () =
    let r = Pmem.Region.create ~size:(1 lsl 16) () in
    let e = Romulus.Engine.create ~mode r in
    (* committed state: a small object and a big frontier chunk *)
    Romulus.Engine.begin_tx e;
    let small = Romulus.Engine.alloc e 16 in
    Romulus.Engine.store e small 7;
    Romulus.Engine.set_root e 0 small;
    let big = Romulus.Engine.alloc e 8192 in
    Romulus.Engine.store e big 9;
    Romulus.Engine.set_root e 1 big;
    Romulus.Engine.end_tx e;
    ([| r |], (e, small, big, Romulus.Engine.used_span e))
  in
  (* the transaction under test frees the frontier chunk (top shrinks)
     and updates the small object *)
  let shrink (e, small, big, _) =
    Romulus.Engine.begin_tx e;
    Romulus.Engine.free e big;
    Romulus.Engine.set_root e 1 0;
    Romulus.Engine.store e small 8;
    Romulus.Engine.end_tx e
  in
  ignore
    (Crash_driver.sweep ~name:"shrink-crash loop"
       ~policy:(fun k -> Pmem.Region.Random_subset (k + 3))
       ~fresh ~op:shrink
       (fun k (e, _, big, span_before) _ ->
         Romulus.Engine.recover e;
         let v = Romulus.Engine.load e (Romulus.Engine.get_root e 0) in
         let root1 = Romulus.Engine.get_root e 1 in
         (match (v, root1) with
          | 7, b when b = big ->
            if Romulus.Engine.load e big <> 9 then
              Alcotest.failf "point %d: pre-state lost the big chunk" k;
            if Romulus.Engine.used_span e < span_before then
              Alcotest.failf "point %d: rolled back but frontier shrank" k
          | 8, 0 -> () (* post-state: chunk freed *)
          | v, b -> Alcotest.failf "point %d: torn (v=%d root1=%d)" k v b);
         match Romulus.Engine.allocator_check e with
         | Ok () -> ()
         | Error msg -> Alcotest.failf "point %d: allocator: %s" k msg)
      : int)

(* ---- RomulusLR synthetic pointers ---- *)

let test_lr_delta_zero_outside_read () =
  Alcotest.(check int) "no ambient offset" 0 (Romulus.Lr.current_delta ())

let test_lr_reader_addresses_back () =
  let r = Pmem.Region.create ~size:(1 lsl 16) () in
  let p = Romulus.Lr.open_region r in
  let obj =
    Romulus.Lr.update_tx p (fun () ->
        let o = Romulus.Lr.alloc p 16 in
        Romulus.Lr.store p o 77;
        Romulus.Lr.set_root p 0 o;
        o)
  in
  let ms = Romulus.Engine.main_size (Romulus.Lr.engine p) in
  (* steady state: read-only transactions are parked on the back copy *)
  let delta_in_read =
    Romulus.Lr.read_tx p (fun () -> Romulus.Lr.current_delta ())
  in
  Alcotest.(check int) "reader offset = main_size" ms delta_in_read;
  (* scribble on the back copy directly: the reader must see it (it reads
     back), while the writer still sees main *)
  Pmem.Region.store r (obj + ms) 123;
  Alcotest.(check int) "reader reads the back copy" 123
    (Romulus.Lr.read_tx p (fun () -> Romulus.Lr.load p obj));
  Alcotest.(check int) "writer reads main" 77
    (Romulus.Lr.update_tx p (fun () -> Romulus.Lr.load p obj));
  (* a read_tx nested in an update is part of the update: no back offset *)
  Alcotest.(check (pair int int)) "nested reader addresses main" (0, 77)
    (Romulus.Lr.update_tx p (fun () ->
         Romulus.Lr.read_tx p (fun () ->
             (Romulus.Lr.current_delta (), Romulus.Lr.load p obj))))

let test_lr_update_restores_back () =
  let r = Pmem.Region.create ~size:(1 lsl 16) () in
  let p = Romulus.Lr.open_region r in
  let obj =
    Romulus.Lr.update_tx p (fun () ->
        let o = Romulus.Lr.alloc p 16 in
        Romulus.Lr.store p o 1;
        Romulus.Lr.set_root p 0 o;
        o)
  in
  Romulus.Lr.update_tx p (fun () -> Romulus.Lr.store p obj 2);
  (* after the update transaction, both copies hold the new value *)
  let ms = Romulus.Engine.main_size (Romulus.Lr.engine p) in
  Alcotest.(check int) "main updated" 2 (Pmem.Region.load r obj);
  Alcotest.(check int) "back replicated" 2 (Pmem.Region.load r (obj + ms))

(* A PTM's state written to a file mid-transaction reopens in a fresh
   "process" with recovery, exactly like an mmap'd region would. *)
let test_ptm_survives_file_round_trip () =
  let path = Filename.temp_file "romulus" ".pmem" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let module P = Romulus.Logged in
  let r = Pmem.Region.create ~size:(1 lsl 16) () in
  let p = P.open_region r in
  let obj =
    P.update_tx p (fun () ->
        let o = P.alloc p 16 in
        P.store p o 314;
        P.set_root p 0 o;
        o)
  in
  (* die mid-transaction, save the (persistent) state the disk would
     hold, and reopen it elsewhere *)
  let fired, _ =
    Crash_driver.armed [| r |] (Trap (0, 6)) (fun () ->
        P.update_tx p (fun () -> P.store p obj 999))
  in
  if not fired then Alcotest.fail "trap did not fire";
  Pmem.Region.crash r Pmem.Region.Drop_all;
  Pmem.Region.save_to_file r path;
  let r2 = Pmem.Region.load_from_file path in
  let p2 = P.open_region r2 in
  Alcotest.(check int) "committed value survives the file round-trip" 314
    (P.read_tx p2 (fun () -> P.load p2 (P.get_root p2 0)));
  (* and the new region is fully usable *)
  P.update_tx p2 (fun () -> P.store p2 (P.get_root p2 0) 315);
  Alcotest.(check int) "usable after reopen" 315
    (P.read_tx p2 (fun () -> P.load p2 obj))

(* A RomulusLog update transaction of eight word stores allocates only
   its front's per-request bookkeeping: the redo log, the dirty-line
   drain, the fences, the replication and the lock release allocate
   nothing.  69 minor words measured, 5 of them the body closure. *)
let test_update_tx_allocation_pin () =
  let module P = Romulus.Logged in
  let p = P.open_region (Pmem.Region.create ~size:(1 lsl 20) ()) in
  let obj = P.update_tx p (fun () -> P.alloc p 64) in
  let tx () =
    P.update_tx p (fun () ->
        for i = 0 to 7 do
          P.store p (obj + (8 * i)) i
        done)
  in
  tx ();
  let n = 1_000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    tx ()
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  if words > 69. then
    Alcotest.failf "romL 8-store update_tx: %.1f minor words, at most 69 \
                    expected" words

(* A RomulusLog read-only transaction fetches its Domain's nesting
   record, arrives on the read indicator and departs: none of it
   allocates, and a body that captures nothing is a static closure. *)
let test_read_tx_allocation_pin () =
  let module P = Romulus.Logged in
  let p = P.open_region (Pmem.Region.create ~size:(1 lsl 16) ()) in
  let tx () = P.read_tx p (fun () -> ()) in
  tx ();
  let n = 1_000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    tx ()
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  if words > 0. then
    Alcotest.failf "romL empty read_tx: %.2f minor words, none expected" words

(* ---- Scrub: pair verification against the per-line walk ---- *)

module Sr = Pmem.Region
module E = Romulus.Engine

(* The header layout and protocol states, as the engine writes them. *)
let o_state = 8
let main_start = 64
let st_idl = 0
let st_mut = 1
let st_cpy = 2

(* The scrub as a per-line walk over [Region]'s public primitives, one
   copy after the other: the reference the engine's pair-verifying scrub
   must match in every verdict, repair, count and failpoint hit. *)
let reference_scrub ~salvage r ~main_size =
  let arena_base = main_start + (8 * Romulus.Ptm_intf.root_slots) in
  let stats = Sr.stats r in
  let line = Sr.line_size r in
  let rec log2 n acc = if n = 1 then acc else log2 (n lsr 1) (acc + 1) in
  let shift = log2 line 0 in
  let twin_d = main_size lsr shift in
  let scrubbed = ref 0 and repaired = ref 0 in
  let lost = ref [] in
  let bad l = Sr.line_is_clean r ~line:l && not (Sr.media_ok r ~line:l) in
  let unrepairable ~tolerable l state =
    stats.Pmem.Stats.unrepairable_lines <-
      stats.Pmem.Stats.unrepairable_lines + 1;
    if salvage && tolerable then lost := (l lsl shift, state) :: !lost
    else raise (E.Unrepairable { offset = l lsl shift; state })
  in
  let visit () =
    incr scrubbed;
    stats.Pmem.Stats.scrubbed_lines <- stats.Pmem.Stats.scrubbed_lines + 1
  in
  let hdr_last = (main_start - 1) lsr shift in
  for l = 0 to hdr_last do
    visit ();
    if bad l then unrepairable ~tolerable:false l "header"
  done;
  let state = Sr.load r o_state in
  let sname =
    if state = st_idl then "IDL"
    else if state = st_mut then "MUT"
    else if state = st_cpy then "CPY"
    else string_of_int state
  in
  let tolerable = state = st_idl in
  let span_of copy_base =
    match Sr.load r (arena_base + copy_base + Palloc.top_offset) with
    | top
      when top >= arena_base + Palloc.meta_bytes
           && top <= main_start + main_size -> top - main_start
    | _ -> main_size
    | exception Sr.Media_error _ -> main_size
  in
  let repair ~dst ~src ~state =
    Fault.hit "engine.scrub.bad_line";
    if bad src then unrepairable ~tolerable dst state
    else begin
      let content = Sr.load_bytes r (src lsl shift) line in
      Sr.store_bytes r (dst lsl shift) content;
      Sr.pwb_range r (dst lsl shift) line;
      Sr.pfence r;
      incr repaired;
      stats.Pmem.Stats.repaired_lines <- stats.Pmem.Stats.repaired_lines + 1;
      Fault.hit "engine.scrub.repaired"
    end
  in
  let scrub_copy ~base ~span ~twin ~repairable =
    if span > 0 then begin
      let first = max (hdr_last + 1) (base lsr shift) in
      let last = (base + span - 1) lsr shift in
      for l = first to last do
        visit ();
        if bad l then begin
          let fully_inside =
            l lsl shift >= base && (l + 1) lsl shift <= base + main_size
          in
          if fully_inside && repairable then
            repair ~dst:l ~src:(l + twin) ~state:sname
          else unrepairable ~tolerable l sname
        end
      done
    end
  in
  scrub_copy ~base:main_start ~span:(span_of 0) ~twin:twin_d
    ~repairable:(state = st_idl || state = st_mut);
  scrub_copy ~base:(main_start + main_size) ~span:(span_of main_size)
    ~twin:(-twin_d)
    ~repairable:(state = st_idl || state = st_cpy);
  { E.scrubbed = !scrubbed; repaired = !repaired;
    unrepairable = List.rev !lost }

(* Where rot lands.  Lines are counted from the start of main's used
   span; [Header] garbles a bit of the header line.  [Rewrite_main k]
   and [Rewrite_back k] rot nothing: they write one line's own bytes
   back, which invalidates that line's sidecar alone.  [Agree_main k]
   rots a bit of main line [k], then writes the rotten bytes into its
   twin: the twins agree byte for byte while main's sidecar misses
   ([Agree_back k] likewise with the copies swapped), so equal bytes
   alone must not vouch for a line. *)
type rot =
  | Main of int
  | Back of int
  | Both of int
  | Apart of int * int  (** main line, a different back line *)
  | Header
  | Rewrite_main of int
  | Rewrite_back of int
  | Agree_main of int
  | Agree_back of int

(* Back's allocator frontier relative to main's: equal, a few lines
   shorter, a few lines longer (main's is moved down instead), main's
   one line shorter (so main's span has the other pair-count parity),
   or invalid, which walks the whole copy. *)
type frontier = Equal | Back_short | Main_short | Main_odd | Back_garbage

type case = {
  line : int;
  state : int;
  frontier : frontier;
  warm : bool;  (** audited before the rot: no invalidated sidecar left *)
  live : bool;  (** dirty and pending lines in both twins *)
  rot : rot list;
}

let pp_case c =
  Printf.sprintf "line %d, state %d, frontier %s, warm %b, live %b, %d rots"
    c.line c.state
    (match c.frontier with
     | Equal -> "equal"
     | Back_short -> "back short"
     | Main_short -> "main short"
     | Main_odd -> "main one line short"
     | Back_garbage -> "back garbage")
    c.warm c.live (List.length c.rot)

(* The (line size, pair-count parity) of every main span built, so the
   test can check that both parities, and hence a last pair without a
   lockstep partner, were walked. *)
let span_parities = ref []

(* Build [c]'s image deterministically: the same case always yields the
   same region, so the two scrubs can each run on a fresh build. *)
let build c =
  let r = Sr.create ~line_size:c.line ~size:(1 lsl 16) () in
  let e = E.create ~mode:E.Logged r in
  for i = 0 to 11 do
    E.begin_tx e;
    let o = E.alloc e 200 in
    for w = 0 to 24 do
      E.store e (o + (8 * w)) ((i * 1000) + w)
    done;
    E.end_tx e
  done;
  if c.warm then ignore (E.scrub e : E.scrub_report);
  let main_size = E.main_size e in
  let arena_base = main_start + (8 * Romulus.Ptm_intf.root_slots) in
  let top_addr copy = arena_base + copy + Palloc.top_offset in
  let durable_store off v =
    Sr.store r off v;
    Sr.pwb r off;
    Sr.pfence r
  in
  let top = Sr.load r (top_addr 0) in
  let shift = if c.line = 64 then 6 else 7 in
  let first = ((main_start lsr shift) + 1) lsl shift in
  (* a MUT or CPY image: one twin has moved on in a few lines.  The
     state word is written back either way (a transaction leaves IDL's
     store unfenced), so the header line is clean and audited. *)
  if c.state <> st_idl then
    List.iter
      (fun k -> durable_store (first + (k * c.line) + 8) (-k))
      [ 3; 9; 17 ];
  durable_store o_state c.state;
  (match c.frontier with
   | Equal -> ()
   | Back_short -> durable_store (top_addr main_size) (top - (4 * c.line))
   | Main_short -> durable_store (top_addr 0) (top - (4 * c.line))
   | Main_odd -> durable_store (top_addr 0) (top - c.line)
   | Back_garbage -> durable_store (top_addr main_size) (-1));
  (* the pair count of main's walked span, as the engine derives it *)
  let pairs =
    ((Sr.load r (top_addr 0) - 1) lsr shift)
    - max ((main_start - 1) lsr shift + 1) (main_start lsr shift) + 1
  in
  span_parities := (c.line, pairs land 1) :: !span_parities;
  let main_line k = (first lsr shift) + k in
  let back_line k = main_line k + (main_size lsr shift) in
  let rewrite l =
    let off = (l lsl shift) + 24 in
    durable_store off (Sr.load r off)
  in
  let agree ~seed ~rotten ~twin =
    let off = (rotten lsl shift) + 32 in
    Sr.corrupt_bits r ~seed ~off ~len:8 ~flips:1;
    let word = String.sub (Sr.persistent_snapshot r) off 8 in
    Sr.store_bytes r ((twin lsl shift) + 32) word;
    Sr.pwb r (twin lsl shift);
    Sr.pfence r
  in
  List.iteri
    (fun i rot ->
      let seed = 17 + i in
      match rot with
      | Main k -> Sr.corrupt_line ~seed r ~line:(main_line k)
      | Back k -> Sr.corrupt_line ~seed r ~line:(back_line k)
      | Both k ->
        Sr.corrupt_line ~seed r ~line:(main_line k);
        Sr.corrupt_line ~seed:(seed + 1) r ~line:(back_line k)
      | Apart (k, j) ->
        Sr.corrupt_line ~seed r ~line:(main_line k);
        Sr.corrupt_line ~seed:(seed + 1) r ~line:(back_line j)
      | Header -> Sr.corrupt_bits r ~seed ~off:16 ~len:8 ~flips:1
      | Rewrite_main k -> rewrite (main_line k)
      | Rewrite_back k -> rewrite (back_line k)
      | Agree_main k -> agree ~seed ~rotten:(main_line k) ~twin:(back_line k)
      | Agree_back k -> agree ~seed ~rotten:(back_line k) ~twin:(main_line k))
    c.rot;
  (* a live engine: lines with a store in flight, some of them rotten *)
  if c.live then
    List.iter
      (fun (k, pending) ->
        List.iter
          (fun l ->
            Sr.store r ((l lsl shift) + 16) 7;
            if pending then Sr.pwb r (l lsl shift))
          [ main_line k; back_line (k + 1) ])
      [ (2, false); (5, true); (11, false); (20, true) ];
  (r, e)

(* Everything a scrub leaves observable: its report or exception, the
   counters it moved, the persistent image and each line's cleanliness
   and sidecar verdict. *)
let observe c ?failpoint scrub =
  let r, e = build c in
  let before = Pmem.Stats.snapshot (Sr.stats r) in
  (match failpoint with
   | Some (site, skip) -> Fault.arm ~skip site (fun () -> Sr.kill r)
   | None -> ());
  let result =
    match scrub r e with
    | rep ->
      Printf.sprintf "ok scrubbed=%d repaired=%d lost=[%s]" rep.E.scrubbed
        rep.E.repaired
        (String.concat "; "
           (List.map
              (fun (o, s) -> Printf.sprintf "%d %s" o s)
              rep.E.unrepairable))
    | exception E.Unrepairable { offset; state } ->
      Printf.sprintf "unrepairable %d %s" offset state
    | exception Sr.Crash_point -> "crash"
  in
  Fault.disarm ();
  let delta =
    Format.asprintf "%a" Pmem.Stats.pp
      (Pmem.Stats.since ~now:(Sr.stats r) ~past:before)
  in
  let lines = Sr.size r / Sr.line_size r in
  let verdicts =
    String.init lines (fun l ->
        if not (Sr.line_is_clean r ~line:l) then 'd'
        else if Sr.media_ok r ~line:l then '.'
        else 'x')
  in
  (result, delta, Digest.to_hex (Digest.string (Sr.persistent_snapshot r)),
   verdicts)

(* The kernel takes main's pairs two at a time, from the span's first
   line, so a main line [k] is the first pair of its step for one line
   size and the second for the other (main line 0 is the span's second
   line at 64 bytes, its first at 128).  The patterns after the first
   row put a bad verdict in either pair of a step or in both, bad pairs
   beside the live run's dirty and pending lines (main lines 2, 5, 11,
   20, back lines 3, 6, 12, 21), one invalidated sidecar among a
   step's four lines, alone or beside rot, and twins that agree byte for
   byte while one sidecar misses, in either pair of a step. *)
let rot_patterns =
  [ []; [ Main 4 ]; [ Back 4 ]; [ Both 4 ]; [ Apart (4, 30) ]; [ Header ];
    [ Main 0; Back 6; Main 3; Back 3 ]; [ Main 9; Main 17 ]; [ Back 9 ];
    [ Main 30; Back 2; Both 12 ];
    [ Main 5 ]; [ Back 5 ]; [ Main 4; Main 5 ]; [ Main 5; Main 6 ];
    [ Back 7; Main 8 ]; [ Back 8; Back 9 ]; [ Both 7; Both 8 ];
    [ Main 6; Back 4 ]; [ Main 1; Back 7 ];
    [ Rewrite_main 4 ]; [ Rewrite_main 5 ]; [ Rewrite_back 4 ];
    [ Rewrite_back 5 ]; [ Rewrite_back 5; Main 4 ]; [ Rewrite_main 8; Back 9 ];
    [ Agree_main 4 ]; [ Agree_main 5 ]; [ Agree_back 4 ]; [ Agree_back 5 ] ]

let test_scrub_matches_per_line_walk () =
  let cases = ref 0 and repairs = ref 0 and outcomes = ref [] in
  List.iter
    (fun line ->
      List.iter
        (fun state ->
          List.iter
            (fun frontier ->
              List.iter
                (fun (warm, live) ->
                  List.iter
                    (fun rot ->
                      let c = { line; state; frontier; warm; live; rot } in
                      List.iter
                        (fun salvage ->
                          let engine _ e =
                            if salvage then E.scrub_salvage e else E.scrub e
                          in
                          let reference r e =
                            reference_scrub ~salvage r ~main_size:(E.main_size e)
                          in
                          let check ?failpoint what =
                            incr cases;
                            let ((res, _, _, _) as want) =
                              observe c ?failpoint reference
                            in
                            let got = observe c ?failpoint engine in
                            if got <> want then begin
                              let res', delta', img', v' = got
                              and _, delta, img, v = want in
                              Alcotest.failf
                                "%s (%s, salvage %b):\n\
                                 reference %s\n%s\n%s\n%s\n\
                                 engine    %s\n%s\n%s\n%s"
                                what (pp_case c) salvage res delta img v res'
                                delta' img' v'
                            end;
                            res
                          in
                          let res = check "scrub" in
                          if not (String.starts_with ~prefix:"ok" res
                                  && String.ends_with ~suffix:"lost=[]" res)
                          then outcomes := res :: !outcomes;
                          (* crash inside each of the first repairs, in
                             either window: the same lines are repaired
                             first and the image dies the same *)
                          if rot <> [] && not (warm || salvage) then
                            List.iter
                              (fun site ->
                                for skip = 0 to 1 do
                                  if check ~failpoint:(site, skip) site
                                     = "crash"
                                  then incr repairs
                                done)
                              [ "engine.scrub.bad_line"; "engine.scrub.repaired" ])
                        [ false; true ])
                    rot_patterns)
                [ (false, false); (true, false); (false, true); (true, true) ])
            [ Equal; Back_short; Main_short; Main_odd; Back_garbage ])
        [ st_idl; st_mut; st_cpy ])
    [ 64; 128 ];
  (* the cases exercise repairs, losses and every kind of refusal, not
     only clean walks *)
  let seen suffix =
    List.exists
      (fun res ->
        String.starts_with ~prefix:"unrepairable" res
        && String.ends_with ~suffix res)
      !outcomes
  in
  Alcotest.(check bool) "failpoints fired inside repairs" true (!repairs > 300);
  Alcotest.(check bool) "salvage tolerated losses" true
    (List.exists (String.starts_with ~prefix:"ok") !outcomes);
  List.iter
    (fun state ->
      Alcotest.(check bool) ("refused under " ^ state) true (seen state))
    [ "header"; "IDL"; "MUT"; "CPY" ];
  List.iter
    (fun line ->
      List.iter
        (fun parity ->
          Alcotest.(check bool)
            (Printf.sprintf "%d-byte lines: a span of %s pairs" line
               (if parity = 0 then "even" else "odd"))
            true
            (List.mem (line, parity) !span_parities))
        [ 0; 1 ])
    [ 64; 128 ];
  Alcotest.(check bool) "cases run" true (!cases > 3000)

(* A clean scrub allocates nothing per line: one scrub of a settled heap
   allocates the same few minor words whatever the heap's line count
   (70 measured: the walk's closures and refs, and the report). *)
let test_scrub_allocation_pin () =
  let words_per_scrub keys =
    let r = Sr.create ~size:(1 lsl 20) () in
    let e = E.create ~mode:E.Logged r in
    for i = 0 to keys - 1 do
      E.begin_tx e;
      E.store e (E.alloc e 64) i;
      E.end_tx e
    done;
    Sr.crash r Sr.Drop_all;
    E.recover e;
    let report = E.scrub e in
    let n = 100 in
    let before = Gc.minor_words () in
    for _ = 1 to n do
      ignore (E.scrub e : E.scrub_report)
    done;
    let words = (Gc.minor_words () -. before) /. float_of_int n in
    (report.E.scrubbed, words)
  in
  let small_lines, small = words_per_scrub 16 in
  let large_lines, large = words_per_scrub 2_000 in
  Alcotest.(check bool) "the heaps differ in size" true
    (large_lines > 4 * small_lines);
  if large <> small || large > 70. then
    Alcotest.failf
      "scrub of %d lines: %.2f minor words, of %d lines: %.2f; equal and at \
       most 70 expected"
      small_lines small large_lines large

(* ---- Stats ---- *)

let test_stats_write_amplification () =
  let s = Pmem.Stats.create () in
  s.Pmem.Stats.nvm_bytes <- 300;
  s.Pmem.Stats.user_bytes <- 100;
  Alcotest.(check (float 0.001)) "amplification" 3.0
    (Pmem.Stats.write_amplification s);
  Pmem.Stats.reset s;
  Alcotest.(check bool) "nan when no user bytes" true
    (Float.is_nan (Pmem.Stats.write_amplification s))

let suite =
  let tc = Alcotest.test_case in
  [ tc "redo log: basics" `Quick test_redo_log_basics;
    tc "redo log: dedup" `Quick test_redo_log_dedup;
    tc "redo log: clear resets dedup" `Quick test_redo_log_clear_resets_dedup;
    tc "redo log: growth" `Quick test_redo_log_growth;
    tc "redo log: zero-length ignored" `Quick test_redo_log_zero_len_ignored;
    tc "redo log: dedup table growth" `Quick
      test_redo_log_dedup_table_growth;
    QCheck_alcotest.to_alcotest prop_redo_log_dedup_model;
    tc "redo log: coalesce merges adjacent" `Quick
      test_coalesce_merges_adjacent;
    tc "redo log: coalesce merges overlaps" `Quick
      test_coalesce_merges_overlap_and_containment;
    tc "redo log: coalesce disjoint + idempotent" `Quick
      test_coalesce_keeps_disjoint_and_is_idempotent;
    QCheck_alcotest.to_alcotest coalesce_prop;
    tc "coalesce allocates no OCaml memory" `Quick
      test_coalesce_allocates_nothing;
    tc "engine: deferred flush issues fewer pwbs" `Quick
      test_deferred_flush_fewer_pwbs;
    tc "engine: coalesced replication issues fewer copies" `Quick
      test_coalesced_replication_fewer_copies;
    tc "engine: crash sweep (deferred, coalesced)" `Slow
      test_engine_crash_sweep;
    tc "fence: by_name" `Quick test_fence_by_name;
    tc "fence: semantics flags" `Quick test_fence_semantics_flags;
    tc "keygen: deterministic" `Quick test_keygen_deterministic;
    tc "keygen: bounds" `Quick test_keygen_bounds;
    tc "keygen: spread" `Quick test_keygen_spread;
    tc "keygen: level keys" `Quick test_level_key_format;
    tc "engine: decomposed commit durable" `Quick
      test_engine_decomposed_commit;
    tc "engine: used span grows" `Quick test_engine_used_span_grows;
    tc "engine: accessors" `Quick test_engine_mode_accessors;
    tc "engine: nested begin rejected" `Quick test_engine_rejects_nested_begin;
    tc "engine: shrinking frontier crash-atomic (logged)" `Slow
      (test_engine_shrinking_top_crash_atomic Romulus.Engine.Logged);
    tc "engine: shrinking frontier crash-atomic (full copy)" `Slow
      (test_engine_shrinking_top_crash_atomic Romulus.Engine.Full_copy);
    tc "lr: delta zero outside reads" `Quick test_lr_delta_zero_outside_read;
    tc "lr: reader addresses back copy" `Quick test_lr_reader_addresses_back;
    tc "lr: update restores back" `Quick test_lr_update_restores_back;
    tc "ptm survives file round-trip" `Quick
      test_ptm_survives_file_round_trip;
    tc "stats: write amplification" `Quick test_stats_write_amplification;
    tc "engine: romL 8-store update_tx allocation pin" `Quick
      test_update_tx_allocation_pin;
    tc "engine: romL empty read_tx allocates nothing" `Quick
      test_read_tx_allocation_pin;
    tc "scrub: pair walk matches the per-line walk" `Quick
      test_scrub_matches_per_line_walk;
    tc "scrub: clean scrub allocation pin" `Quick test_scrub_allocation_pin ]

let () = Alcotest.run "units" [ ("units", suite) ]
