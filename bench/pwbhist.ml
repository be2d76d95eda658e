(* §6.2's instrumentation finding: the linked list executes ~10 pwb per
   transaction, while the red-black tree's histogram is dispersed with
   two peaks (recolour-only vs rotation-heavy transactions), and most of
   the stores inside transactions come from the memory allocator.

   This experiment reproduces the histograms from live counters. *)

module P = Romulus.Logged
module L = Pds.Linked_list.Make (Romulus.Logged)
module T = Pds.Rb_tree.Make (Romulus.Logged)

let txs = 2_000
let keys = 1_000

let histogram name per_tx =
  let counts = Hashtbl.create 32 in
  List.iter
    (fun c ->
      (* bucket by 5 *)
      let b = c / 5 * 5 in
      Hashtbl.replace counts b (1 + Option.value ~default:0 (Hashtbl.find_opt counts b)))
    per_tx;
  let sorted = List.sort compare (List.of_seq (Hashtbl.to_seq counts)) in
  let n = List.length per_tx in
  let mean =
    float_of_int (List.fold_left ( + ) 0 per_tx) /. float_of_int n
  in
  let sorted_vals = List.sort compare per_tx in
  let pct p = List.nth sorted_vals (p * (n - 1) / 100) in
  Common.subsection
    (Printf.sprintf "%s: pwb/tx mean %.1f, p50 %d, p90 %d, max %d" name mean
       (pct 50) (pct 90) (pct 100));
  List.iter
    (fun (bucket, freq) ->
      let bar = String.make (min 60 (freq * 120 / n)) '#' in
      Printf.printf "%4d-%-4d %6d %s\n" bucket (bucket + 4) freq bar)
    sorted;
  flush stdout

let collect_list () =
  let r = Pmem.Region.create ~size:(1 lsl 20) () in
  let p = P.open_region r in
  let l = L.create p ~root:0 in
  for i = 0 to keys - 1 do
    ignore (L.add l ((2 * i) + 1))
  done;
  let rng = Workload.Keygen.create ~seed:5 () in
  let s = Pmem.Region.stats r in
  let samples = ref [] in
  for _ = 1 to txs / 2 do
    let k = (2 * Workload.Keygen.int rng keys) + 1 in
    let before = Pmem.Stats.snapshot s in
    ignore (L.remove l k);
    let mid = Pmem.Stats.snapshot s in
    ignore (L.add l k);
    samples :=
      (Pmem.Stats.since ~now:mid ~past:before).Pmem.Stats.pwbs
      :: (Pmem.Stats.since ~now:s ~past:mid).Pmem.Stats.pwbs
      :: !samples
  done;
  !samples

let collect_tree () =
  let r = Pmem.Region.create ~size:(1 lsl 20) () in
  let p = P.open_region r in
  let t = T.create p ~root:0 in
  for i = 0 to keys - 1 do
    ignore (T.put t ((i * 7919) mod keys) i)
  done;
  let rng = Workload.Keygen.create ~seed:6 () in
  let s = Pmem.Region.stats r in
  let samples = ref [] in
  for _ = 1 to txs / 2 do
    let k = Workload.Keygen.int rng keys in
    let before = Pmem.Stats.snapshot s in
    ignore (T.remove t k);
    let mid = Pmem.Stats.snapshot s in
    ignore (T.put t k k);
    samples :=
      (Pmem.Stats.since ~now:mid ~past:before).Pmem.Stats.pwbs
      :: (Pmem.Stats.since ~now:s ~past:mid).Pmem.Stats.pwbs
      :: !samples
  done;
  !samples

(* §6.2: "most of the stores inside transactions are triggered by the
   memory allocator" — separate user-credited stores (the data-structure
   fields) from the rest (allocator metadata, twin-copy replication). *)
let allocator_share () =
  let r = Pmem.Region.create ~size:(1 lsl 20) () in
  let p = P.open_region r in
  let l = L.create p ~root:0 in
  for i = 0 to keys - 1 do
    ignore (L.add l ((2 * i) + 1))
  done;
  let rng = Workload.Keygen.create ~seed:7 () in
  let s = Pmem.Region.stats r in
  let before = Pmem.Stats.snapshot s in
  let n = 1_000 in
  for _ = 1 to n / 2 do
    let k = (2 * Workload.Keygen.int rng keys) + 1 in
    ignore (L.remove l k);
    ignore (L.add l k)
  done;
  let d = Pmem.Stats.since ~now:s ~past:before in
  let user_stores = d.Pmem.Stats.user_bytes / 8 in
  (* a twin-copy replication range is a store too *)
  let stores = d.Pmem.Stats.stores + d.Pmem.Stats.copy_calls in
  Common.subsection "store breakdown per linked-list transaction";
  Printf.printf
    "stores/tx %.1f, of which data-structure fields %.1f (%.0f%%) — the \
     rest is allocator metadata and twin-copy replication\n%!"
    (float_of_int stores /. float_of_int n)
    (float_of_int user_stores /. float_of_int n)
    (100. *. float_of_int user_stores /. float_of_int stores)

let run _scale =
  Common.section
    "pwb histograms (6.2): RomulusLog, remove/insert transactions, 1,000 keys";
  histogram "linked list" (collect_list ());
  histogram "red-black tree" (collect_tree ());
  allocator_share ()
