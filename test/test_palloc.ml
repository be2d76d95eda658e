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

(* ---- differential property: the mask search vs the 64-bin scan ---- *)

(* The search [alloc] did before the bin mask: try every bin from the
   request's bin up to the last, then the frontier.  It reads no mask
   bit, so it is the reference the mask search must agree with. *)
let alloc_by_scan a n =
  let need = Palloc.chunk_size n in
  let rec try_bins i =
    if i >= Palloc.nbins then A.alloc_from_top a ~need
    else
      match A.take_from_bin a i ~need with
      | 0 -> try_bins (i + 1)
      | c -> c
  in
  try_bins (Palloc.bin_index need)

(* One script drives two arenas, one through [A.alloc] and one through
   the scan.  Every allocation must land at the same offset or fail with
   the same Out_of_memory, and both arenas must pass [check] after every
   step.  Sizes up to 2,000 bytes reach the large bins, whose first fit
   may walk past chunks that are too small. *)
let run_differential script =
  let _, a = fresh ~size:(1 lsl 15) () and _, b = fresh ~size:(1 lsl 15) () in
  let live = ref [] in
  let outcome alloc x n =
    match alloc x n with
    | p -> Ok p
    | exception Palloc.Out_of_memory { requested; available } ->
      Error (requested, available)
  in
  List.iteri
    (fun step op ->
      (match op with
       | `Alloc n ->
         let p = outcome A.alloc a n in
         if p <> outcome alloc_by_scan b n then
           QCheck.Test.fail_reportf "step %d: alloc %d placed differently"
             step n;
         Result.iter (fun p -> live := p :: !live) p
       | `Free i ->
         if !live <> [] then begin
           let p = List.nth !live (i mod List.length !live) in
           A.free a p;
           A.free b p;
           live := List.filter (( <> ) p) !live
         end);
      List.iter
        (fun (what, x) ->
          match A.check x with
          | Ok () -> ()
          | Error e ->
            QCheck.Test.fail_reportf "step %d, %s arena: %s" step what e)
        [ ("mask", a); ("scan", b) ])
    script;
  true

let prop_mask_search_matches_scan =
  let open QCheck in
  let op =
    Gen.(
      frequency
        [ (3, map (fun n -> `Alloc (1 + (n mod 200))) nat);
          (1, map (fun n -> `Alloc (1 + (n mod 2000))) nat);
          (3, map (fun i -> `Free i) nat) ])
  in
  Test.make ~count:200 ~name:"mask search places like the 64-bin scan"
    (make ~print:(fun l -> Printf.sprintf "<script of %d ops>" (List.length l))
       Gen.(list_size (int_bound 200) op))
    run_differential

(* The mask, written behind the allocator's back: a non-empty bin whose
   bit is cleared is reported by [check], naming the bin; an empty bin
   whose bit is set is only stale, and passes until an allocation clears
   it. *)
let test_check_sees_mask_bit () =
  let mask k = 64 + Palloc.mask_offset + (8 * k) in
  let with_bin_filled f =
    let r, a = fresh () in
    let p = A.alloc a 200 in
    let _guard = A.alloc a 16 in
    A.free a p;
    check_ok a "bin filled";
    f r a (Palloc.bin_index (Palloc.chunk_size 200))
  in
  with_bin_filled (fun r a i ->
      let w = Pmem.Region.load r (mask (i lsr 5)) in
      Pmem.Region.store r (mask (i lsr 5)) (w land lnot (1 lsl (i land 31)));
      Alcotest.(check (result unit string))
        "the cleared bit is reported, naming its bin"
        (Error (Printf.sprintf "bin %d is non-empty but its mask bit is clear"
                  i))
        (A.check a));
  with_bin_filled (fun r a i ->
      List.iter
        (fun j ->
          if j <> i then begin
            let k = j lsr 5 in
            let w = Pmem.Region.load r (mask k) in
            Pmem.Region.store r (mask k) (w lor (1 lsl (j land 31)))
          end)
        [ 0; 7; 31; 32; 63 ];
      check_ok a "stale bits over empty bins";
      (* a 1,000-byte request (bin 31) fits no bin: on its way to the
         frontier it clears the stale bits at and above its bin *)
      let _ = A.alloc a 1000 in
      check_ok a "after the fall-through";
      Alcotest.(check (pair int int)) "stale bits from bin 31 up cleared"
        ((1 lsl 0) lor (1 lsl 7) lor (1 lsl i), 0)
        (Pmem.Region.load r (mask 0), Pmem.Region.load r (mask 1)))

(* The allocation path allocates no OCaml memory: neither the search
   over the mask, the first fit, the split and take, nor the free with
   its coalescing and top merge. *)
let test_alloc_free_allocate_nothing () =
  let _, a = fresh ~size:(1 lsl 20) () in
  (* a free 256-byte chunk in a bin, kept off the frontier by [guard] *)
  let hole = A.alloc a 248 in
  let _guard = A.alloc a 16 in
  A.free a hole;
  let pairs = 10_000 in
  let before = Gc.minor_words () in
  for i = 1 to pairs / 2 do
    (* carved from the hole (a take and a split), then coalesced back *)
    A.free a (A.alloc a (16 + (i land 63)));
    (* no bin fits: the frontier, then the top merge *)
    A.free a (A.alloc a 1000)
  done;
  let words = Gc.minor_words () -. before in
  check_ok a "after the loop";
  if words >= float_of_int pairs then
    Alcotest.failf "%.0f minor words for %d alloc/free pairs" words pairs

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
    tc "check reports a cleared mask bit, allows a stale one" `Quick
      test_check_sees_mask_bit;
    tc "alloc and free allocate no OCaml memory" `Quick
      test_alloc_free_allocate_nothing;
    tc "bin_index monotone" `Quick test_bin_index_monotone ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_random_alloc_free; prop_free_matches_walk;
        prop_mask_search_matches_scan ]

let () = Alcotest.run "palloc" [ ("palloc", suite) ]
