(* Figure 4: update-only and read-only throughput on a linked list, a
   resizable hash map and a red-black tree holding 1,000 keys, for 1-64
   threads and all five PTMs.

   Single-thread costs are measured from the real data-structure code
   (including calibration of the flat-combining batch amortization); the
   thread axis is produced by the discrete-event models (DESIGN.md). *)

type ds = { name : string; build : (module Common.PTM) -> Ds_bench.ops;
            conflict : float * float }

let keys = 1_000
let region_size = 1 lsl 20

(* Persistence costs are emulated with the STT profile so they are
   visible above OCaml's interposition overhead; §6.2 reports that the
   STT-emulated results are "highly similar" to the DRAM ones. *)
let fence = Pmem.Fence.stt

let structures =
  [ { name = "linked list";
      build = (fun m -> Ds_bench.make_list m ~fence ~keys ~region_size ());
      conflict = (0.02, 0.002) };
    { name = "hash map";
      build =
        (fun m ->
          Ds_bench.make_hash_map m ~fence ~keys ~resizable:true
            ~initial_buckets:64 ~value_bytes:8 ~region_size ());
      (* the shared element counter makes every pair of concurrent update
         transactions conflict under fine-grained STM (§6.2) *)
      conflict = (1.0, 0.02) };
    { name = "rb tree";
      build = (fun m -> Ds_bench.make_tree m ~fence ~keys ~region_size ());
      conflict = (0.05, 0.005) } ]

let run scale =
  Common.section
    "Figure 4: throughput on 1,000-key structures (TX/s; measured 1-thread \
     costs, DES thread axis)";
  let threads = Common.threads_axis scale in
  let ops = Common.measure_ops scale in
  List.iter
    (fun s ->
      let calibrated =
        List.map
          (fun (name, m) ->
            let b = s.build m in
            (name, Ds_bench.calibrate ~ops b))
          Common.all_ptms
      in
      Common.subsection (Printf.sprintf "%s: update-only workload" s.name);
      Common.table ~header:"threads"
        ~cols:(List.map fst calibrated)
        ~rows:
          (List.map
             (fun n ->
               ( string_of_int n,
                 List.map
                   (fun (ptm, costs) ->
                     snd
                       (Ds_bench.simulate ~scale ~seed:7 ~ptm
                          ~conflict:s.conflict costs ~readers:0 ~writers:n))
                   calibrated ))
             threads)
        Common.si;
      Common.subsection (Printf.sprintf "%s: read-only workload" s.name);
      Common.table ~header:"threads"
        ~cols:(List.map fst calibrated)
        ~rows:
          (List.map
             (fun n ->
               ( string_of_int n,
                 List.map
                   (fun (ptm, costs) ->
                     fst
                       (Ds_bench.simulate ~scale ~seed:7 ~ptm
                          ~conflict:s.conflict costs ~readers:n ~writers:0))
                   calibrated ))
             threads)
        Common.si)
    structures
