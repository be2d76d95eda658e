(* Figure 5: update-only speedup relative to single-thread PMDK on a
   statically-dimensioned hash map (2,048 buckets, 100 entries) for value
   sizes of 8/64/256/1024 bytes.

   This is the experiment the paper built to reproduce Mnemosyne's
   original scalability: without the resizable map's shared counter,
   fine-grained STM conflicts are rare and Mnemosyne scales again, while
   the flat-combining Romulus variants stay flat-but-high. *)

let value_sizes = [ 8; 64; 256; 1024 ]
let threads = [ 1; 2; 4; 8; 16; 24; 30 ]
let keys = 100
let ptms = [ "romL"; "mne"; "pmdk" ]

let fence = Pmem.Fence.stt
let conflict = (0.01, 0.001) (* no shared counter: conflicts are rare *)

(* update TX/s of [n] writers *)
let updates ~scale ~ptm calib n =
  snd
    (Ds_bench.simulate ~scale ~seed:11 ~ptm ~conflict calib ~readers:0
       ~writers:n)

let run scale =
  Common.section
    "Figure 5: fixed hash map (2,048 buckets, 100 entries), speedup vs \
     1-thread PMDK";
  let ops = Common.measure_ops scale in
  List.iter
    (fun value_bytes ->
      let calibrated =
        List.map
          (fun ptm ->
            let b =
              Ds_bench.make_hash_map (Common.ptm_named ptm) ~fence ~keys
                ~resizable:false ~initial_buckets:2048 ~value_bytes
                ~region_size:(1 lsl 22) ()
            in
            (ptm, Ds_bench.calibrate ~ops b))
          ptms
      in
      let baseline =
        updates ~scale ~ptm:"pmdk" (List.assoc "pmdk" calibrated) 1
      in
      Common.subsection
        (Printf.sprintf "%d-byte values (speedup vs PMDK@1 = %s TX/s)"
           value_bytes
           (Common.si baseline));
      Common.table ~header:"threads" ~cols:ptms
        ~rows:
          (List.map
             (fun n ->
               ( string_of_int n,
                 List.map
                   (fun ptm ->
                     updates ~scale ~ptm (List.assoc ptm calibrated) n
                     /. baseline)
                   ptms ))
             threads)
        (fun v -> Printf.sprintf "%.2f" v))
    value_sizes
