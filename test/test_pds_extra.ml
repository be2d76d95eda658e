(* Tests for the extension containers (cell/array/string box, queue)
   and the blob red-black tree behind Kv.Sorted_db: model-based
   behaviour, structural invariants, and crash atomicity.  Run over
   RomulusLog, RomulusLR and the aborting STM baseline (which
   additionally exercises closure re-execution). *)

module R = Pmem.Region

module type PTM = sig
  include Romulus.Ptm_intf.S

  val recover : t -> unit
end

let region ?(size = 1 lsl 18) () = R.create ~size ()

module Make (P : PTM) = struct
  module B = Pds.Pbox.Make (P)
  module Q = Pds.Pqueue.Make (P)

  (* ---- Pbox ---- *)

  let test_cell () =
    let r = region () in
    let p = P.open_region r in
    let c = B.Cell.create p ~root:0 41 in
    Alcotest.(check int) "initial" 41 (B.Cell.get c);
    B.Cell.set c 7;
    Alcotest.(check int) "set" 7 (B.Cell.get c);
    Alcotest.(check int) "incr returns new" 8 (B.Cell.incr c);
    Alcotest.(check int) "update" 16 (B.Cell.update c (fun v -> v * 2));
    (* durability *)
    R.crash r R.Drop_all;
    P.recover p;
    let c = B.Cell.attach p ~root:0 in
    Alcotest.(check int) "survives crash" 16 (B.Cell.get c)

  let test_array () =
    let r = region () in
    let p = P.open_region r in
    let a = B.Array_.create p ~root:0 10 in
    Alcotest.(check int) "length" 10 (B.Array_.length a);
    Alcotest.(check int) "zero initialized" 0 (B.Array_.get a 3);
    B.Array_.set a 3 33;
    B.Array_.set a 7 77;
    B.Array_.swap a 3 7;
    Alcotest.(check int) "swapped 3" 77 (B.Array_.get a 3);
    Alcotest.(check int) "swapped 7" 33 (B.Array_.get a 7);
    Alcotest.check_raises "bounds"
      (Invalid_argument "Pbox.Array_: index 10 out of bounds [0, 10)")
      (fun () -> ignore (B.Array_.get a 10));
    B.Array_.fill a 5;
    Alcotest.(check (list int)) "filled" (List.init 10 (fun _ -> 5))
      (B.Array_.to_list a);
    R.crash r R.Drop_all;
    P.recover p;
    let a = B.Array_.attach p ~root:0 in
    Alcotest.(check int) "length after attach" 10 (B.Array_.length a);
    Alcotest.(check int) "contents survive" 5 (B.Array_.get a 9)

  let test_str_box () =
    let r = region () in
    let p = P.open_region r in
    let s = B.Str.create p ~root:0 "hello" in
    Alcotest.(check string) "initial" "hello" (B.Str.get s);
    B.Str.set s "a much longer replacement string";
    Alcotest.(check string) "replaced" "a much longer replacement string"
      (B.Str.get s);
    B.Str.set s "";
    Alcotest.(check string) "empty" "" (B.Str.get s);
    B.Str.set s "final";
    R.crash r R.Drop_all;
    P.recover p;
    let s = B.Str.attach p ~root:0 in
    Alcotest.(check string) "survives crash" "final" (B.Str.get s)

  (* ---- queue ---- *)

  let test_queue () =
    let r = region () in
    let p = P.open_region r in
    let q = Q.create p ~root:0 in
    Alcotest.(check (option int)) "dequeue empty" None (Q.dequeue q);
    Q.enqueue q 1;
    Q.enqueue q 2;
    Q.enqueue q 3;
    Alcotest.(check (list int)) "fifo order" [ 1; 2; 3 ] (Q.to_list q);
    Alcotest.(check (option int)) "dequeue" (Some 1) (Q.dequeue q);
    Alcotest.(check (option int)) "peek" (Some 2) (Q.peek q);
    (match Q.check q with Ok () -> () | Error e -> Alcotest.fail e);
    (* drain to empty and refill: tail handling *)
    ignore (Q.dequeue q);
    ignore (Q.dequeue q);
    Alcotest.(check bool) "drained" true (Q.is_empty q);
    (match Q.check q with Ok () -> () | Error e -> Alcotest.fail e);
    Q.enqueue q 9;
    Alcotest.(check (list int)) "refilled" [ 9 ] (Q.to_list q);
    R.crash r R.Drop_all;
    P.recover p;
    let q = Q.attach p ~root:0 in
    Alcotest.(check (list int)) "survives crash" [ 9 ] (Q.to_list q)

  let prop_queue_model =
    let open QCheck in
    Test.make ~count:30 ~name:(P.name ^ ": queue vs model")
      (* the queue grows with the op count (unlike the key-bounded
         structures), so bound the list size to keep a net-enqueue run
         within the arena — an overflow would make QCheck shrink a
         multi-thousand-element list, which takes effectively forever *)
      (list_of_size (Gen.int_bound 250) (option (int_bound 100)))
      (fun ops ->
        let r = region ~size:(1 lsl 20) () in
        let p = P.open_region r in
        let q = Q.create p ~root:0 in
        let model = Queue.create () in
        List.iter
          (fun op ->
            match op with
            | Some v ->
              Q.enqueue q v;
              Queue.add v model
            | None ->
              let mine = Q.dequeue q in
              let theirs = Queue.take_opt model in
              if mine <> theirs then
                QCheck.Test.fail_reportf "dequeue disagreed")
          ops;
        (match Q.check q with
         | Ok () -> ()
         | Error e -> QCheck.Test.fail_reportf "invariant: %s" e);
        Q.to_list q = List.of_seq (Queue.to_seq model))

  (* ---- blob red-black tree ---- *)

  (* The red-black tree on the blob codec, as Kv.Sorted_db runs it.
     [key] is order-preserving, so the tree scans in the model's order. *)
  module T = Pds.Rb_tree.Of_codec (Pds.Codec.Blob) (P)

  let key = Printf.sprintf "key%04d"
  let binding k v = (key k, string_of_int v)

  let prop_tree_model =
    let open QCheck in
    Test.make ~count:30 ~name:(P.name ^ ": blob tree vs model")
      (list (pair (int_bound 2) (int_bound 120)))
      (fun ops ->
        let r = region ~size:(1 lsl 20) () in
        let p = P.open_region r in
        let b = T.create p ~root:0 in
        let model = Hashtbl.create 64 in
        List.iter
          (fun (op, k) ->
            match op with
            | 0 ->
              ignore (T.put b (key k) (string_of_int (k * 3)));
              Hashtbl.replace model k (k * 3)
            | 1 ->
              ignore (T.remove b (key k));
              Hashtbl.remove model k
            | _ ->
              if
                T.get b (key k)
                <> Option.map string_of_int (Hashtbl.find_opt model k)
              then QCheck.Test.fail_reportf "get %d disagreed" k)
          ops;
        (match T.check b with
         | Ok () -> ()
         | Error e -> QCheck.Test.fail_reportf "invariant: %s" e);
        T.to_list b
        = List.map
            (fun (k, v) -> binding k v)
            (List.sort compare
               (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [])))

  (* Kv.Sorted_db.iter_range is this fold: an inclusive range, ascending,
     over removes as well as inserts *)
  let prop_tree_range_model =
    let open QCheck in
    Test.make ~count:30 ~name:(P.name ^ ": blob tree range vs model")
      (quad (list (int_bound 100)) (list (int_bound 100)) (int_bound 100)
         (int_bound 100))
      (fun (keys, removed, a, b) ->
        let lo = min a b and hi = max a b in
        let r = region ~size:(1 lsl 20) () in
        let p = P.open_region r in
        let t = T.create p ~root:0 in
        List.iter (fun k -> ignore (T.put t (key k) (string_of_int k))) keys;
        List.iter (fun k -> ignore (T.remove t (key k))) removed;
        let mine =
          List.rev
            (T.fold_range t ~lo:(key lo) ~hi:(key hi)
               (fun acc k v -> (k, v) :: acc)
               [])
        in
        let theirs =
          List.sort_uniq compare
            (List.filter
               (fun k -> lo <= k && k <= hi && not (List.mem k removed))
               keys)
        in
        mine = List.map (fun k -> binding k k) theirs)

  let prop_tree_crash =
    let open QCheck in
    Test.make ~count:25 ~name:(P.name ^ ": blob tree crash recovery")
      (pair small_nat (int_bound 2))
      (fun (trap, pol) ->
        let r = region ~size:(1 lsl 20) () in
        let p = P.open_region r in
        let b = T.create p ~root:0 in
        for k = 1 to 40 do
          ignore (T.put b (key k) (string_of_int k))
        done;
        ignore
          (Crash_driver.armed [| r |] (Trap (0, 15 + trap)) (fun () ->
               for k = 41 to 90 do
                 ignore (T.put b (key k) (string_of_int k))
               done));
        let policy =
          match pol with
          | 0 -> R.Drop_all
          | 1 -> R.Keep_all
          | n -> R.Random_subset (n + trap)
        in
        R.crash r policy;
        P.recover p;
        let b = T.attach p ~root:0 in
        (match T.check b with
         | Ok () -> ()
         | Error e -> QCheck.Test.fail_reportf "invariant after crash: %s" e);
        (* puts are atomic and sequential: the survivors are a prefix *)
        let n = List.length (T.to_list b) in
        T.to_list b = List.init n (fun i -> binding (i + 1) (i + 1)) && n >= 40)

  (* remove releases the key and value blobs: 2,000 put/remove rounds of
     two 200-byte blobs each pass through an arena far smaller than
     their sum *)
  let test_tree_frees_blobs () =
    let r = region ~size:(1 lsl 16) () in
    let p = P.open_region r in
    let t = T.create p ~root:0 in
    ignore (T.put t "kept" "v");
    for i = 1 to 2_000 do
      let k = Printf.sprintf "%0200d" i in
      ignore (T.put t k (String.make 200 'v'));
      if not (T.remove t k) then Alcotest.failf "remove %d missed" i
    done;
    Alcotest.(check (list (pair string string)))
      "only the kept binding" [ ("kept", "v") ] (T.to_list t);
    match T.check t with Ok () -> () | Error e -> Alcotest.fail e

  let suite =
    let tc = Alcotest.test_case in
    [ tc "cell" `Quick test_cell;
      tc "array" `Quick test_array;
      tc "string box" `Quick test_str_box;
      tc "queue" `Quick test_queue;
      tc "blob tree frees removed blobs" `Quick test_tree_frees_blobs ]
    @ List.map QCheck_alcotest.to_alcotest
        [ prop_queue_model; prop_tree_model; prop_tree_range_model;
          prop_tree_crash ]
end

(* ---- golden images ---- *)

(* One fixed op sequence per structure on RomulusLog, pinned by the
   digest of the persistent image it leaves and by the exact region
   access counts it costs (Golden_image): inserts (through bucket
   doublings / rebalancing), overwrites, removes of present and absent
   keys, and inserts after the removes. *)
module GH = Pds.Hash_map.Make (Romulus.Logged)
module GT = Pds.Rb_tree.Make (Romulus.Logged)

let check_golden what pin run =
  Golden_image.check what pin (fun r ->
      run (Romulus.Logged.open_region r))

let golden_ops ~put ~remove =
  for k = 0 to 39 do ignore (put k (k * 10) : bool) done;
  for k = 0 to 9 do ignore (put k ((k * 10) + 1) : bool) done;
  for k = 10 to 19 do ignore (remove (3 * k) : bool) done;
  for k = 40 to 44 do ignore (put k k : bool) done

let golden =
  let tc = Alcotest.test_case in
  [ tc "hash map (resizable) golden image" `Quick (fun () ->
        check_golden "resizable map"
          ("541e34b5817738ff7a89bbf173d2c576",
           "loads=2031 stores=925 copies=338 pwbs=1090 pfences=200") (fun p ->
            let m = GH.create ~initial_buckets:4 p ~root:0 in
            golden_ops ~put:(GH.put m) ~remove:(GH.remove m)));
    tc "hash map (fixed) golden image" `Quick (fun () ->
        check_golden "fixed map"
          ("584073011ae5c217d5f2250c444b8fd5",
           "loads=1888 stores=644 copies=212 pwbs=853 pfences=200") (fun p ->
            let m = GH.create ~resizable:false ~initial_buckets:8 p ~root:0 in
            golden_ops ~put:(GH.put m) ~remove:(GH.remove m)));
    tc "rb-tree golden image" `Quick (fun () ->
        check_golden "rb-tree"
          ("21c759baedc2a099fe675a167d9c1fd7",
           "loads=3374 stores=1254 copies=532 pwbs=1608 pfences=200") (fun p ->
            let t = GT.create p ~root:0 in
            golden_ops ~put:(GT.put t) ~remove:(GT.remove t))) ]

module On_logged = Make (Romulus.Logged)
module On_lr = Make (Romulus.Lr)
module On_redolog = Make (Baselines.Redolog)

let () =
  Alcotest.run "pds-extra"
    [ ("on RomL", On_logged.suite);
      ("on RomLR", On_lr.suite);
      ("on Mnemosyne-like", On_redolog.suite);
      ("golden", golden) ]
