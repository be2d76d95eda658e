(* Figure 7: read-dominated workloads on the 1,000-key hash map.
   Left: 2 concurrent writers and a growing number of reader threads
   (both read and write TX/s are reported) — only RomulusLR keeps scaling
   its readers, and PMDK's reader-preference lock starves its writers
   once ~16 readers are running.  Right: read-only, no writer. *)

let keys = 1_000
let conflict = (1.0, 0.02)
let fence = Pmem.Fence.stt

let run scale =
  Common.section "Figure 7: read-dominated workloads, 1,000-key hash map";
  let threads = Common.threads_axis scale in
  let ops = Common.measure_ops scale in
  let calibrated =
    List.map
      (fun (name, m) ->
        let b =
          Ds_bench.make_hash_map m ~fence ~keys ~resizable:true
            ~initial_buckets:64 ~value_bytes:8 ~region_size:(1 lsl 20) ()
        in
        (name, Ds_bench.calibrate ~ops b))
      Common.all_ptms
  in
  let names = List.map fst calibrated in
  let table pick ~writers title =
    Common.subsection title;
    Common.table ~header:"readers" ~cols:names
      ~rows:
        (List.map
           (fun n ->
             ( string_of_int n,
               List.map
                 (fun ptm ->
                   pick
                     (Ds_bench.simulate ~scale ~seed:17 ~ptm ~conflict
                        (List.assoc ptm calibrated) ~readers:n ~writers))
                 names ))
           threads)
      Common.si
  in
  table fst ~writers:2 "read TX/s with 2 concurrent writers";
  table snd ~writers:2 "write TX/s with 2 concurrent writers";
  table fst ~writers:0 "read TX/s with no writer"
