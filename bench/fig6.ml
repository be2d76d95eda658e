(* Figure 6: update-only throughput on the resizable hash map with 10K,
   100K (and, with --full, 1M) keys.  The point of the figure: every
   log-based PTM is insensitive to the structure size, while basic
   Romulus collapses — its commit replicates the whole used span, which
   grows with the data set.

   Mnemosyne is omitted as in the paper (footnote 2: its public
   implementation cannot allocate large enough data sets; for us, its
   bounded persistent log has the same effect on the populate phase). *)

let ptms = [ "rom"; "romL"; "romLR"; "pmdk" ]
let conflict = (1.0, 0.02)
let fence = Pmem.Fence.stt

let sizes = function
  | Common.Quick -> [ 10_000; 100_000 ]
  | Common.Full -> [ 10_000; 100_000; 1_000_000 ]

let region_size_for keys = (keys * 128) + (1 lsl 23)

let run scale =
  Common.section
    "Figure 6: resizable hash map, update-only, growing key counts (TX/s)";
  let threads = Common.threads_axis scale in
  List.iter
    (fun keys ->
      Common.subsection (Printf.sprintf "%d keys" keys);
      let calibrated =
        List.map
          (fun ptm ->
            let b =
              Ds_bench.make_hash_map (Common.ptm_named ptm) ~fence ~keys
                ~resizable:true ~initial_buckets:64 ~value_bytes:8
                ~region_size:(region_size_for keys) ()
            in
            (* the span copy makes basic Romulus expensive: scale the
               measurement effort down with the structure size *)
            let ops = max 60 (Common.measure_ops scale * 1_000 / keys) in
            (ptm, Ds_bench.calibrate ~ops b))
          ptms
      in
      Common.table ~header:"threads" ~cols:ptms
        ~rows:
          (List.map
             (fun n ->
               ( string_of_int n,
                 List.map
                   (fun ptm ->
                     snd
                       (Ds_bench.simulate ~scale ~seed:13 ~ptm ~conflict
                          (List.assoc ptm calibrated) ~readers:0 ~writers:n))
                   ptms ))
             threads)
        Common.si)
    (sizes scale)
