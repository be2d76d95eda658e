(* Unit and property tests for the persistent allocator, instantiated over
   a plain (non-interposed) region memory. *)

module Mem = struct
  type t = Pmem.Region.t

  let load = Pmem.Region.load
  let store = Pmem.Region.store
end

module A = Palloc.Make (Mem)

let fresh ?(size = 1 lsl 16) () =
  let r = Pmem.Region.create ~size () in
  (r, A.init r ~base:64 ~size:(size - 64))

(* ---- unit tests ---- *)

let check_ok a what =
  match A.check a with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: invariants violated: %s" what e

let test_alloc_basic () =
  let r, a = fresh () in
  let p = A.alloc a 16 in
  Alcotest.(check bool) "non-null" true (p > 0);
  Alcotest.(check bool) "usable >= requested" true (A.usable_size a p >= 16);
  Pmem.Region.store r p 123;
  Pmem.Region.store r (p + 8) 456;
  Alcotest.(check int) "payload usable" 123 (Pmem.Region.load r p);
  check_ok a "after alloc"

let test_alloc_distinct_no_overlap () =
  let _, a = fresh () in
  let ps = List.init 50 (fun i -> (A.alloc a (8 * (1 + (i mod 7))), 8 * (1 + (i mod 7)))) in
  (* payload intervals must be pairwise disjoint *)
  let rec pairs = function
    | [] -> ()
    | (p, n) :: rest ->
      List.iter
        (fun (q, m) ->
          let disjoint = p + n <= q || q + m <= p in
          if not disjoint then
            Alcotest.failf "overlap: [%d,%d) and [%d,%d)" p (p + n) q (q + m))
        rest;
      pairs rest
  in
  pairs ps;
  check_ok a "after many allocs"

let test_free_and_reuse () =
  let _, a = fresh () in
  let p = A.alloc a 64 in
  let used = A.used_bytes a in
  A.free a p;
  check_ok a "after free";
  let q = A.alloc a 64 in
  Alcotest.(check int) "freed chunk reused" p q;
  Alcotest.(check int) "no growth" used (A.used_bytes a)

let test_free_all_returns_to_start () =
  let _, a = fresh () in
  let initial = A.used_bytes a in
  let ps = List.init 20 (fun i -> A.alloc a (16 + (8 * i))) in
  List.iter (A.free a) ps;
  check_ok a "after freeing everything";
  Alcotest.(check int) "all space returned to the frontier" initial
    (A.used_bytes a)

let test_coalescing_forward_backward () =
  let _, a = fresh () in
  let p1 = A.alloc a 32 in
  let p2 = A.alloc a 32 in
  let p3 = A.alloc a 32 in
  let _guard = A.alloc a 32 in
  (* free middle, then left (backward merge), then right (forward merge) *)
  A.free a p2;
  check_ok a "hole in the middle";
  A.free a p1;
  check_ok a "backward coalesce";
  A.free a p3;
  check_ok a "forward coalesce";
  (* the coalesced block must satisfy a request of the combined size *)
  let big = A.alloc a 100 in
  Alcotest.(check int) "coalesced block reused" p1 big;
  check_ok a "after reusing coalesced block"

let test_split_large_chunk () =
  let _, a = fresh () in
  let p = A.alloc a 256 in
  A.free a p;
  let q = A.alloc a 16 in
  Alcotest.(check int) "small alloc carved from the freed chunk" p q;
  check_ok a "after split";
  (* remainder is still usable *)
  let _r2 = A.alloc a 128 in
  check_ok a "after allocating the remainder"

(* Invalid frees (outside any transaction: the raw allocator level) are
   detected before any metadata is modified and surface as the typed
   Invalid_free, never a crash or silent corruption. *)
let expect_invalid_free what f =
  match f () with
  | exception Palloc.Invalid_free _ -> ()
  | () -> Alcotest.failf "%s not detected" what

let test_double_free_detected () =
  let _, a = fresh () in
  let p = A.alloc a 16 in
  A.free a p;
  expect_invalid_free "double free" (fun () -> A.free a p);
  check_ok a "arena untouched by rejected double free"

let test_invalid_free_variants () =
  let _, a = fresh () in
  let p = A.alloc a 64 in
  let _guard = A.alloc a 64 in
  expect_invalid_free "misaligned pointer" (fun () -> A.free a (p + 4));
  expect_invalid_free "interior pointer" (fun () -> A.free a (p + 16));
  expect_invalid_free "offset before the heap" (fun () -> A.free a 8);
  expect_invalid_free "offset past the heap" (fun () -> A.free a (1 lsl 30));
  check_ok a "arena untouched by rejected frees";
  (* the probed block is still live and freeable exactly once *)
  A.free a p;
  check_ok a "valid free still works";
  (* a stale pointer to a chunk that coalescing absorbed is caught too *)
  expect_invalid_free "stale pointer after coalesce" (fun () -> A.free a p)

let test_out_of_memory () =
  let _, a = fresh ~size:2048 () in
  let last = ref 0 in
  (match
     for _ = 1 to 1_000 do
       last := A.alloc a 64
     done
   with
   | exception Palloc.Out_of_memory { requested; available } ->
     Alcotest.(check bool) "carries sizes" true
       (requested >= 64 && available >= 0)
   | () -> Alcotest.fail "expected Out_of_memory");
  check_ok a "arena intact after exhaustion";
  (* exhaustion is recoverable: freeing makes space again *)
  A.free a !last;
  Alcotest.(check int) "freed space reused" !last (A.alloc a 64);
  check_ok a "usable after exhaustion"

let test_attach () =
  let r, a = fresh () in
  let p = A.alloc a 40 in
  Pmem.Region.store r p 999;
  let a2 = A.attach r ~base:64 in
  Alcotest.(check int) "state visible after attach" 999 (Pmem.Region.load r p);
  Alcotest.(check int) "used bytes preserved" (A.used_bytes a)
    (A.used_bytes a2);
  check_ok a2 "after attach"

let test_attach_bad_magic () =
  let r = Pmem.Region.create ~size:4096 () in
  (match A.attach r ~base:64 with
   | exception Palloc.Corrupt _ -> ()
   | _ -> Alcotest.fail "expected Corrupt on unformatted arena")

let test_bin_index_monotone () =
  let last = ref (-1) in
  let sizes = List.init 200 (fun i -> 32 + (16 * i)) in
  List.iter
    (fun s ->
      let b = Palloc.bin_index s in
      Alcotest.(check bool)
        (Printf.sprintf "bin_index %d monotone" s)
        true (b >= !last);
      last := b)
    sizes;
  Alcotest.(check bool) "within range" true (!last < Palloc.nbins)

(* ---- property test: random alloc/free interleavings ---- *)

(* Interpret a script of operations; after every step the full structural
   check must pass, live payloads must hold their fingerprints, and frees
   must target live chunks only. *)
let run_script script =
  let r, a = fresh ~size:(1 lsl 15) () in
  let live = ref [] in (* (payload, size, fingerprint) *)
  let fingerprint p = (p * 31) land 0xFFFF in
  let step op =
    match op with
    | `Alloc n ->
      (match A.alloc a n with
       | p ->
         (* write a fingerprint into the first word *)
         Pmem.Region.store r p (fingerprint p);
         live := (p, n) :: !live
       | exception Palloc.Out_of_memory _ -> ())
    | `Free i ->
      (match !live with
       | [] -> ()
       | l ->
         let idx = i mod List.length l in
         let p, _ = List.nth l idx in
         A.free a p;
         live := List.filteri (fun j _ -> j <> idx) l)
  in
  List.iter
    (fun op ->
      step op;
      (match A.check a with
       | Ok () -> ()
       | Error e -> QCheck.Test.fail_reportf "invariant: %s" e);
      List.iter
        (fun (p, _) ->
          if Pmem.Region.load r p <> fingerprint p then
            QCheck.Test.fail_reportf "chunk %d clobbered" p)
        !live)
    script;
  true

let prop_random_alloc_free =
  let open QCheck in
  let op =
    Gen.(
      frequency
        [ (3, map (fun n -> `Alloc (1 + (n mod 200))) nat);
          (2, map (fun i -> `Free i) nat) ])
  in
  Test.make ~count:60 ~name:"random alloc/free keeps invariants"
    (make ~print:(fun l -> Printf.sprintf "<script of %d ops>" (List.length l))
       Gen.(list_size (int_bound 120) op))
    run_script

(* ---- differential property: O(1) free vs a reference heap walk ---- *)

(* The reference the allocator's O(1) validation must agree with: walk
   the chunk lattice from the bottom of the heap, through the raw region,
   and report whether [c] is the payload of a live (in-use) chunk. *)
let live_by_walk r a c =
  let top = Pmem.Region.load r (64 + Palloc.top_offset) in
  let rec seek p =
    if p - 8 >= top || p > c then false
    else
      let h = Pmem.Region.load r (p - 8) in
      if p = c then h land 1 <> 0
      else
        let size = h land lnot 15 in
        if size < 32 then Alcotest.failf "reference walk: bad header at %d" p
        else seek (p + size)
  in
  seek (A.data_start a)

(* Random alloc/free sequences interleaved with probes of every invalid
   kind.  [free] must raise Invalid_free exactly when the reference walk
   says the offset is not a live chunk, and the structural check
   (bitmap included) must pass after every step. *)
let run_probe_script script =
  let r, a = fresh ~size:(1 lsl 15) () in
  let live = ref [] in
  let dead = ref [] in (* offsets freed earlier: stale or double probes *)
  let pick l i = List.nth l (i mod List.length l) in
  let probe c =
    let expect_live = live_by_walk r a c in
    match A.free a c with
    | () ->
      if not expect_live then
        QCheck.Test.fail_reportf "free %d accepted; the walk says no chunk" c;
      live := List.filter (( <> ) c) !live;
      dead := c :: !dead
    | exception Palloc.Invalid_free { reason; _ } ->
      if expect_live then
        QCheck.Test.fail_reportf "free %d refused (%s); the walk says live" c
          reason
  in
  List.iteri
    (fun step op ->
      (match op with
       | `Alloc n ->
         (match A.alloc a n with
          | p -> live := p :: !live
          | exception Palloc.Out_of_memory _ -> ())
       | `Free i -> if !live <> [] then probe (pick !live i)
       | `Interior (i, k) ->
         if !live <> [] then probe (pick !live i + (16 * (1 + (k mod 8))))
       | `Misaligned (i, k) ->
         if !live <> [] then probe (pick !live i + 1 + (k mod 15))
       | `Stale i -> if !dead <> [] then probe (pick !dead i)
       | `Outside k ->
         probe
           (match k mod 3 with
            | 0 -> A.data_start a - 16
            | 1 -> 64 + A.used_bytes a + 8
            | _ -> 1 lsl 20));
      match A.check a with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "after step %d: %s" step e)
    script;
  true

let prop_free_matches_walk =
  let open QCheck in
  let op =
    Gen.(
      frequency
        [ (4, map (fun n -> `Alloc (1 + (n mod 200))) nat);
          (3, map (fun i -> `Free i) nat);
          (1, map2 (fun i k -> `Interior (i, k)) nat nat);
          (1, map2 (fun i k -> `Misaligned (i, k)) nat nat);
          (2, map (fun i -> `Stale i) nat);
          (1, map (fun k -> `Outside k) nat) ])
  in
  Test.make ~count:100 ~name:"free refuses exactly what the heap walk refuses"
    (make ~print:(fun l -> Printf.sprintf "<script of %d ops>" (List.length l))
       Gen.(list_size (int_bound 150) op))
    run_probe_script

(* One flipped bitmap bit, written behind the allocator's back, must be
   reported by [check]: both a start bit cleared and a spurious one set. *)
let test_check_sees_bitmap_flip () =
  let bitmap = 64 + Palloc.meta_bytes in
  List.iter
    (fun bit ->
      let r, a = fresh () in
      let _ = A.alloc a 64 in
      let _ = A.alloc a 64 in
      check_ok a "before the flip";
      let w = Pmem.Region.load r bitmap in
      Pmem.Region.store r bitmap (w lxor (1 lsl bit));
      match A.check a with
      | Ok () -> Alcotest.failf "flipped bitmap bit %d not reported" bit
      | Error _ -> ())
    [ 0; 1; 5; 31; 40 ]

let suite =
  let tc = Alcotest.test_case in
  [ tc "alloc basics" `Quick test_alloc_basic;
    tc "allocations never overlap" `Quick test_alloc_distinct_no_overlap;
    tc "free and reuse" `Quick test_free_and_reuse;
    tc "free all returns space" `Quick test_free_all_returns_to_start;
    tc "coalescing" `Quick test_coalescing_forward_backward;
    tc "splitting" `Quick test_split_large_chunk;
    tc "double free detected" `Quick test_double_free_detected;
    tc "invalid free variants" `Quick test_invalid_free_variants;
    tc "out of memory" `Quick test_out_of_memory;
    tc "attach" `Quick test_attach;
    tc "attach bad magic" `Quick test_attach_bad_magic;
    tc "check reports a flipped bitmap bit" `Quick
      test_check_sees_bitmap_flip;
    tc "bin_index monotone" `Quick test_bin_index_monotone ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_random_alloc_free; prop_free_matches_walk ]

let () = Alcotest.run "palloc" [ ("palloc", suite) ]
