(* Ablations for the design choices DESIGN.md calls out:

   (a) the volatile redo log (RomulusLog) vs whole-span replication
       (basic Romulus) as the data grows — the log's benefit is the
       difference between copying O(tx) and O(heap) bytes per commit;
   (b) flat-combining batch amortization — the per-update cost and the
       per-update persistence-fence count as the batch grows;
   (c) cache-line size — replication and pwb traffic at 64/128/256-byte
       lines. *)

(* ---- (a) volatile log vs whole-span copy ---- *)

let swap_array ptm ~fence ~words ~txs =
  let r, tx =
    Ds_bench.swap_array ptm ~fence ~size:((words * 32) + (1 lsl 20)) ~words
      ~seed:3 ~swaps:4
  in
  for _ = 1 to 20 do
    tx ()
  done;
  Gc.full_major ();
  let s = Pmem.Region.stats r in
  let before = Pmem.Stats.snapshot s in
  let ns = Workload.Bench_clock.ns_per_op ~region:r ~ops:txs tx in
  let d = Pmem.Stats.since ~now:s ~past:before in
  (ns, float_of_int d.Pmem.Stats.nvm_bytes /. float_of_int txs)

let log_vs_copy scale =
  Common.subsection
    "(a) volatile redo log vs whole-span copy (4-swap transactions)";
  let txs = match scale with Common.Quick -> 400 | Common.Full -> 4_000 in
  Printf.printf "%-12s %14s %14s %16s %16s\n" "array words" "rom ns/tx"
    "romL ns/tx" "rom NVM B/tx" "romL NVM B/tx";
  List.iter
    (fun words ->
      let rom_ns, rom_b =
        swap_array (module Romulus.Basic) ~fence:Pmem.Fence.dram ~words ~txs
      in
      let log_ns, log_b =
        swap_array (module Romulus.Logged) ~fence:Pmem.Fence.dram ~words ~txs
      in
      Printf.printf "%-12d %14.0f %14.0f %16.0f %16.0f\n%!" words rom_ns
        log_ns rom_b log_b)
    [ 1_000; 10_000; 100_000 ]

(* ---- (b) flat-combining batch amortization ---- *)

let fc_batching scale =
  Common.subsection
    "(b) flat combining: per-update cost and fences vs batch size (rb-tree)";
  let ops = Common.measure_ops scale in
  let b =
    Ds_bench.make_tree (module Romulus.Logged) ~fence:Pmem.Fence.stt
      ~keys:1_000 ~region_size:(1 lsl 20) ()
  in
  (* warm up *)
  for _ = 1 to 100 do
    b.Ds_bench.update_pair ()
  done;
  Printf.printf "%-12s %14s %16s\n" "batch size" "ns/update" "fences/update";
  List.iter
    (fun batch ->
      let s = Pmem.Region.stats b.Ds_bench.region in
      let before = Pmem.Stats.snapshot s in
      let iters = max 4 (ops / (8 * batch)) in
      let ns =
        Workload.Bench_clock.ns_per_op ~region:b.Ds_bench.region ~ops:iters
          (fun () -> b.Ds_bench.update_batch batch)
      in
      let d = Pmem.Stats.since ~now:s ~past:before in
      Printf.printf "%-12d %14.0f %16.2f\n%!" batch
        (ns /. float_of_int batch)
        (float_of_int (Pmem.Stats.fences d)
        /. float_of_int (iters * batch)))
    [ 1; 2; 4; 8; 16; 32 ]

(* ---- (c) cache-line size ---- *)

let line_size scale =
  Common.subsection "(c) cache-line size: replication traffic (rb-tree)";
  let ops = Common.measure_ops scale / 2 in
  Printf.printf "%-12s %14s %14s %14s\n" "line bytes" "ns/pair" "NVM B/pair"
    "pwb/pair";
  List.iter
    (fun line ->
      let r = Pmem.Region.create ~line_size:line ~size:(1 lsl 20) () in
      let p = Romulus.Logged.open_region r in
      let module T = Pds.Rb_tree.Make (Romulus.Logged) in
      let t = T.create p ~root:0 in
      for i = 0 to 999 do
        ignore (T.put t ((i * 7919) mod 1_000) i)
      done;
      let rng = Workload.Keygen.create ~seed:8 () in
      let s = Pmem.Region.stats r in
      let before = Pmem.Stats.snapshot s in
      let ns =
        Workload.Bench_clock.ns_per_op ~region:r ~ops (fun () ->
            let k = Workload.Keygen.int rng 1_000 in
            ignore (T.remove t k);
            ignore (T.put t k k))
      in
      let d = Pmem.Stats.since ~now:s ~past:before in
      Printf.printf "%-12d %14.0f %14.0f %14.1f\n%!" line ns
        (float_of_int d.Pmem.Stats.nvm_bytes /. float_of_int ops)
        (float_of_int d.Pmem.Stats.pwbs /. float_of_int ops))
    [ 64; 128; 256 ]

(* ---- (d) redo-log word deduplication ---- *)

let log_dedup _scale =
  Common.subsection
    "(d) redo-log deduplication: N stores to one word inside one tx";
  let r = Pmem.Region.create ~size:(1 lsl 18) () in
  let p = Romulus.Logged.open_region r in
  let obj =
    Romulus.Logged.update_tx p (fun () -> Romulus.Logged.alloc p 16)
  in
  Printf.printf "%-12s %14s %16s\n" "stores" "log ranges" "replicated B";
  List.iter
    (fun n ->
      let s = Pmem.Region.stats r in
      let entries = ref 0 in
      let before = Pmem.Stats.snapshot s in
      Romulus.Logged.update_tx p (fun () ->
          for i = 1 to n do
            Romulus.Logged.store p obj i
          done;
          entries := Romulus.Engine.log_entries (Romulus.Logged.engine p));
      let d = Pmem.Stats.since ~now:s ~past:before in
      (* replicated bytes = total nvm bytes minus the n in-place stores *)
      Printf.printf "%-12d %14d %16d\n%!" n !entries
        (d.Pmem.Stats.nvm_bytes - (8 * n)))
    [ 1; 10; 100; 1_000 ]

(* ---- (e) concurrency machinery tax on single-threaded code ---- *)

(* §5.1 argues for a separate single-threaded API because concurrent
   synchronization "must be paid for every transaction even in
   single-threaded applications".  Romulus.Seq_front is that API: same
   engine, no flat combining, no reader-writer lock. *)
let seq_vs_fc scale =
  Common.subsection
    "(e) single-threaded API vs flat-combining API (same engine)";
  let ops = Common.measure_ops scale in
  let cost (module P : Common.PTM) =
    let r = Pmem.Region.create ~size:(1 lsl 18) () in
    let p = P.open_region r in
    let obj = P.update_tx p (fun () -> P.alloc p 64) in
    for _ = 1 to 100 do
      P.update_tx p (fun () -> P.store p obj 1)
    done;
    Gc.full_major ();
    let upd =
      Workload.Bench_clock.median_ns_per_op ~region:r ~ops (fun () ->
          P.update_tx p (fun () -> P.store p obj 2))
    in
    let rd =
      Workload.Bench_clock.median_ns_per_op ~region:r ~ops (fun () ->
          P.read_tx p (fun () -> ignore (P.load p obj)))
    in
    (upd, rd)
  in
  let fc_u, fc_r = cost (module Romulus.Logged) in
  let sq_u, sq_r = cost (module Romulus.Seq_front) in
  Printf.printf "%-22s %14s %14s\n" "API" "update ns/tx" "read ns/tx";
  Printf.printf "%-22s %14.0f %14.0f\n" "RomulusLog (FC+CRWWP)" fc_u fc_r;
  Printf.printf "%-22s %14.0f %14.0f\n" "RomulusSeq (none)" sq_u sq_r;
  Printf.printf "synchronization tax: %.0f ns per update, %.0f ns per read\n%!"
    (fc_u -. sq_u) (fc_r -. sq_r)

let run scale =
  Common.section "Ablations";
  log_vs_copy scale;
  fc_batching scale;
  line_size scale;
  log_dedup scale;
  seq_vs_fc scale
