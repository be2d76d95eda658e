(* Figure 9: the SPS microbenchmark — an array of 10,000 integers in
   persistent memory, transactions that swap randomly chosen pairs, with
   the transaction size swept from 1 to 1,024 swaps and the persistence
   primitives mapped to CLWB+SFENCE / CLFLUSHOPT+SFENCE / CLFLUSH /
   emulated STT-RAM / emulated PCM.

   No allocation happens during the benchmark, so this isolates the
   fence/flush cost profile of each PTM.  The headline shape: RomulusLog
   and RomulusLR lead everywhere except at 1,024 swaps/tx, where copying
   the whole array once (basic Romulus) becomes cheaper than replicating
   2,048 logged ranges. *)

let array_words = 10_000

let tx_sizes = [ 1; 4; 8; 16; 32; 64; 128; 256; 1024 ]

let profiles =
  [ Pmem.Fence.clwb; Pmem.Fence.clflushopt; Pmem.Fence.clflush;
    Pmem.Fence.stt; Pmem.Fence.pcm ]

let swap_budget = function Common.Quick -> 8_192 | Common.Full -> 131_072

let swaps_per_us ptm ~fence ~swaps_per_tx ~budget =
  let r, tx =
    Ds_bench.swap_array ptm ~fence ~size:(1 lsl 21) ~words:array_words
      ~seed:99 ~swaps:swaps_per_tx
  in
  (* warm up *)
  tx ();
  let ntx = max 2 (budget / swaps_per_tx) in
  let ns = Workload.Bench_clock.ns_per_op ~region:r ~ops:ntx tx in
  float_of_int swaps_per_tx /. (ns /. 1e3)

let run scale =
  Common.section
    "Figure 9: SPS benchmark, swaps/us vs transaction size, per fence type";
  let budget = swap_budget scale in
  List.iter
    (fun fence ->
      Common.subsection
        (Printf.sprintf "pwb = %s (%d/%d/%d ns)" fence.Pmem.Fence.name
           fence.Pmem.Fence.pwb_ns fence.Pmem.Fence.pfence_ns
           fence.Pmem.Fence.psync_ns);
      Common.table ~header:"swaps/tx"
        ~cols:(List.map fst Common.all_ptms)
        ~rows:
          (List.map
             (fun swaps_per_tx ->
               ( string_of_int swaps_per_tx,
                 List.map
                   (fun (_, m) -> swaps_per_us m ~fence ~swaps_per_tx ~budget)
                   Common.all_ptms ))
             tx_sizes)
        (fun v -> Printf.sprintf "%.3f" v))
    profiles
