(* Model-based and crash-recovery tests for the persistent data structures,
   run over every PTM in the repository (3 Romulus variants + 2 baselines),
   the same cross-product the paper benchmarks. *)

module R = Pmem.Region

module type PTM = sig
  include Romulus.Ptm_intf.S

  val recover : t -> unit
end

let region ?(size = 1 lsl 18) () = R.create ~size ()

module Make (P : PTM) = struct
  module List_set = Pds.Linked_list.Make (P)
  module Map_ = Pds.Hash_map.Make (P)
  module Tree = Pds.Rb_tree.Make (P)

  (* ---- linked list ---- *)

  let test_list_basics () =
    let r = region () in
    let p = P.open_region r in
    let s = List_set.create p ~root:0 in
    Alcotest.(check bool) "add 33" true (List_set.add s 33);
    Alcotest.(check bool) "add 11" true (List_set.add s 11);
    Alcotest.(check bool) "add 22" true (List_set.add s 22);
    Alcotest.(check bool) "re-add 22" false (List_set.add s 22);
    Alcotest.(check bool) "contains 22" true (List_set.contains s 22);
    Alcotest.(check bool) "not contains 44" false (List_set.contains s 44);
    Alcotest.(check (list int)) "sorted" [ 11; 22; 33 ] (List_set.to_list s);
    Alcotest.(check bool) "remove 22" true (List_set.remove s 22);
    Alcotest.(check bool) "re-remove 22" false (List_set.remove s 22);
    Alcotest.(check (list int)) "after remove" [ 11; 33 ]
      (List_set.to_list s);
    match List_set.check s with
    | Ok () -> ()
    | Error e -> Alcotest.failf "list invariant: %s" e

  let prop_list_model =
    let open QCheck in
    Test.make ~count:30 ~name:(P.name ^ ": list vs model")
      (list (pair bool (int_bound 50)))
      (fun ops ->
        let r = region () in
        let p = P.open_region r in
        let s = List_set.create p ~root:0 in
        let model = Hashtbl.create 64 in
        List.iter
          (fun (is_add, k) ->
            if is_add then begin
              let fresh = not (Hashtbl.mem model k) in
              if List_set.add s k <> fresh then
                QCheck.Test.fail_reportf "add %d disagreed" k;
              Hashtbl.replace model k ()
            end
            else begin
              let present = Hashtbl.mem model k in
              if List_set.remove s k <> present then
                QCheck.Test.fail_reportf "remove %d disagreed" k;
              Hashtbl.remove model k
            end)
          ops;
        let expect =
          List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) model [])
        in
        (match List_set.check s with
         | Ok () -> ()
         | Error e -> QCheck.Test.fail_reportf "invariant: %s" e);
        List_set.to_list s = expect)

  (* ---- hash map ---- *)

  let test_map_basics () =
    let r = region () in
    let p = P.open_region r in
    let m = Map_.create p ~root:0 in
    Alcotest.(check bool) "put new" true (Map_.put m 1 100);
    Alcotest.(check bool) "put overwrite" false (Map_.put m 1 111);
    Alcotest.(check (option int)) "get" (Some 111) (Map_.get m 1);
    Alcotest.(check (option int)) "get absent" None (Map_.get m 2);
    Alcotest.(check bool) "remove" true (Map_.remove m 1);
    Alcotest.(check (option int)) "get after remove" None (Map_.get m 1);
    Alcotest.(check int) "length" 0 (Map_.length m)

  let test_map_resize () =
    let r = region () in
    let p = P.open_region r in
    let m = Map_.create ~initial_buckets:4 p ~root:0 in
    for k = 1 to 200 do
      ignore (Map_.put m k (k * 10))
    done;
    Alcotest.(check int) "all kept through resizes" 200 (Map_.length m);
    Alcotest.(check bool) "buckets grew" true
      (P.read_tx p (fun () -> Map_.nbuckets m) > 4);
    for k = 1 to 200 do
      Alcotest.(check (option int))
        (Printf.sprintf "get %d" k)
        (Some (k * 10))
        (Map_.get m k)
    done;
    match Map_.check m with
    | Ok () -> ()
    | Error e -> Alcotest.failf "map invariant: %s" e

  let test_map_fixed_no_resize () =
    let r = region () in
    let p = P.open_region r in
    let m = Map_.create ~resizable:false ~initial_buckets:8 p ~root:0 in
    for k = 1 to 100 do
      ignore (Map_.put m k k)
    done;
    Alcotest.(check int) "buckets unchanged" 8
      (P.read_tx p (fun () -> Map_.nbuckets m));
    Alcotest.(check int) "length by fold" 100 (Map_.length m)

  let prop_map_model =
    let open QCheck in
    Test.make ~count:30 ~name:(P.name ^ ": hash map vs model")
      (list (pair (int_bound 2) (int_bound 100)))
      (fun ops ->
        let r = region () in
        let p = P.open_region r in
        let m = Map_.create ~initial_buckets:4 p ~root:0 in
        let model = Hashtbl.create 64 in
        List.iter
          (fun (op, k) ->
            match op with
            | 0 ->
              ignore (Map_.put m k (k * 7));
              Hashtbl.replace model k (k * 7)
            | 1 ->
              ignore (Map_.remove m k);
              Hashtbl.remove model k
            | _ ->
              if Map_.get m k <> Hashtbl.find_opt model k then
                QCheck.Test.fail_reportf "get %d disagreed" k)
          ops;
        (match Map_.check m with
         | Ok () -> ()
         | Error e -> QCheck.Test.fail_reportf "invariant: %s" e);
        let mine = Map_.fold m (fun acc k v -> (k, v) :: acc) [] in
        let theirs = Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [] in
        List.sort compare mine = List.sort compare theirs)

  (* ---- red-black tree ---- *)

  let test_tree_basics () =
    let r = region () in
    let p = P.open_region r in
    let t = Tree.create p ~root:0 in
    Alcotest.(check bool) "put" true (Tree.put t 5 50);
    Alcotest.(check bool) "overwrite" false (Tree.put t 5 55);
    ignore (Tree.put t 3 30);
    ignore (Tree.put t 8 80);
    ignore (Tree.put t 1 10);
    Alcotest.(check (option int)) "get 5" (Some 55) (Tree.get t 5);
    Alcotest.(check (option int)) "get absent" None (Tree.get t 9);
    Alcotest.(check (list (pair int int)))
      "ascending" [ (1, 10); (3, 30); (5, 55); (8, 80) ] (Tree.to_list t);
    Alcotest.(check bool) "remove 3" true (Tree.remove t 3);
    Alcotest.(check bool) "re-remove 3" false (Tree.remove t 3);
    Alcotest.(check int) "length" 3 (Tree.length t);
    match Tree.check t with
    | Ok () -> ()
    | Error e -> Alcotest.failf "tree invariant: %s" e

  let test_tree_sequential_insert_balance () =
    let r = region () in
    let p = P.open_region r in
    let t = Tree.create p ~root:0 in
    (* ascending inserts are the classic worst case for unbalanced trees *)
    for k = 1 to 500 do
      ignore (Tree.put t k k)
    done;
    (match Tree.check t with
     | Ok () -> ()
     | Error e -> Alcotest.failf "tree invariant: %s" e);
    for k = 1 to 500 do
      if Tree.get t k <> Some k then Alcotest.failf "lost key %d" k
    done

  let test_tree_range_queries () =
    let r = region () in
    let p = P.open_region r in
    let t = Tree.create p ~root:0 in
    for k = 0 to 99 do
      ignore (Tree.put t (2 * k) (2 * k))
    done;
    let range lo hi =
      List.rev (Tree.fold_range t ~lo ~hi (fun acc k _ -> k :: acc) [])
    in
    Alcotest.(check (list int)) "inclusive bounds" [ 10; 12; 14 ]
      (range 10 14);
    Alcotest.(check (list int)) "bounds between keys" [ 10; 12; 14 ]
      (range 9 15);
    Alcotest.(check (list int)) "empty range" [] (range 11 11);
    Alcotest.(check int) "full range" 100 (List.length (range min_int max_int));
    Alcotest.(check (option (pair int int))) "find_first exact" (Some (10, 10))
      (Tree.find_first t 10);
    Alcotest.(check (option (pair int int))) "find_first between"
      (Some (12, 12)) (Tree.find_first t 11);
    Alcotest.(check (option (pair int int))) "find_first beyond" None
      (Tree.find_first t 199)

  let prop_tree_range_model =
    let open QCheck in
    Test.make ~count:30 ~name:(P.name ^ ": rb-tree range vs model")
      (triple (list (int_bound 100)) (int_bound 100) (int_bound 100))
      (fun (keys, a, b) ->
        let lo = min a b and hi = max a b in
        let r = region () in
        let p = P.open_region r in
        let t = Tree.create p ~root:0 in
        List.iter (fun k -> ignore (Tree.put t k k)) keys;
        let mine =
          List.rev (Tree.fold_range t ~lo ~hi (fun acc k _ -> k :: acc) [])
        in
        let theirs =
          List.sort_uniq compare (List.filter (fun k -> lo <= k && k <= hi) keys)
        in
        mine = theirs)

  let prop_tree_model =
    let open QCheck in
    Test.make ~count:30 ~name:(P.name ^ ": rb-tree vs model")
      (list (pair (int_bound 2) (int_bound 60)))
      (fun ops ->
        let r = region () in
        let p = P.open_region r in
        let t = Tree.create p ~root:0 in
        let model = Hashtbl.create 64 in
        List.iter
          (fun (op, k) ->
            match op with
            | 0 ->
              ignore (Tree.put t k (k * 3));
              Hashtbl.replace model k (k * 3)
            | 1 ->
              ignore (Tree.remove t k);
              Hashtbl.remove model k
            | _ ->
              if Tree.get t k <> Hashtbl.find_opt model k then
                QCheck.Test.fail_reportf "get %d disagreed" k)
          ops;
        (match Tree.check t with
         | Ok () -> ()
         | Error e -> QCheck.Test.fail_reportf "invariant: %s" e);
        let theirs =
          List.sort compare
            (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [])
        in
        Tree.to_list t = theirs)

  (* ---- crash recovery through a data structure ---- *)

  (* Interrupt a batch of tree updates at a random point, crash with an
     adversarial policy, recover: the tree must satisfy its invariants and
     contain a prefix-consistent set of the operations. *)
  let prop_tree_crash_recovery =
    let open QCheck in
    Test.make ~count:25 ~name:(P.name ^ ": rb-tree crash recovery")
      (pair small_nat (int_bound 3))
      (fun (trap, pol) ->
        let r = region () in
        let p = P.open_region r in
        let t = Tree.create p ~root:0 in
        for k = 1 to 20 do
          ignore (Tree.put t k k)
        done;
        ignore
          (Crash_driver.armed [| r |] (Trap (0, 20 + trap)) (fun () ->
               for k = 21 to 60 do
                 ignore (Tree.put t k k)
               done));
        let policy =
          match pol with
          | 0 -> R.Drop_all
          | 1 -> R.Keep_all
          | n -> R.Random_subset (n + trap)
        in
        R.crash r policy;
        P.recover p;
        let t = Tree.attach p ~root:0 in
        (match Tree.check t with
         | Ok () -> ()
         | Error e -> QCheck.Test.fail_reportf "invariant after crash: %s" e);
        (* keys 1..20 committed before the trap was armed; each later put
           is atomic, so the surviving keys must be a prefix 1..m *)
        let keys = List.map fst (Tree.to_list t) in
        let expected_prefix = List.init (List.length keys) (fun i -> i + 1) in
        keys = expected_prefix && List.length keys >= 20)

  let suite =
    let tc = Alcotest.test_case in
    [ tc "list basics" `Quick test_list_basics;
      tc "map basics" `Quick test_map_basics;
      tc "map resize" `Quick test_map_resize;
      tc "map fixed size" `Quick test_map_fixed_no_resize;
      tc "tree basics" `Quick test_tree_basics;
      tc "tree balance (sequential)" `Quick
        test_tree_sequential_insert_balance;
      tc "tree range queries" `Quick test_tree_range_queries ]
    @ List.map QCheck_alcotest.to_alcotest
        [ prop_list_model; prop_map_model; prop_tree_model;
          prop_tree_range_model; prop_tree_crash_recovery ]
end

module On_basic = Make (Romulus.Basic)
module On_logged = Make (Romulus.Logged)
module On_lr = Make (Romulus.Lr)
module On_undolog = Make (Baselines.Undolog)
module On_redolog = Make (Baselines.Redolog)

let () =
  Alcotest.run "pds"
    [ ("on Rom", On_basic.suite);
      ("on RomL", On_logged.suite);
      ("on RomLR", On_lr.suite);
      ("on PMDK-like", On_undolog.suite);
      ("on Mnemosyne-like", On_redolog.suite) ]
