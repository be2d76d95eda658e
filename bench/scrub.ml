(* Scrub-overhead datapoints: what a media-audit pass costs on a live
   RomulusLog heap.  Four numbers per heap size, emitted to
   BENCH_scrub.json:

   - the cost of one clean scrub pass (CRC verification of every clean
     line in both twins' used spans — the steady-state background cost),
     each sample the mean of back-to-back passes spanning >= 1 ms;
   - the per-line cost of that pass;
   - a same-run calibration: the per-line cost of [Crc32.bytes] over the
     lines the pass visits, and the pass's per-line cost over it, a ratio
     that compares across machines and days where absolute times do not;
   - the cost of a pass that additionally repairs rotten lines from the
     twin (detection + copy + write-back + fence).

   Every pass is checked as well as timed: a clean pass must repair
   nothing and a repairing pass exactly the lines it rotted, so a scrub
   that waves rot through fails the run instead of reading fast.

   Commit-path overhead of the sidecar itself is not measured separately:
   maintenance is O(1) per line write-back (a 4-byte blit and two flag
   stores), invisible next to the pwb it rides on. *)

module P = Romulus.Logged
module H = Pds.Hash_map.Make (P)

let jint, jfix = Common.(jint, jfix)

(* [runs] timings of one call: the median, and the record fields
   [name]_ns (the median), [name]_min_ns and [name]_max_ns.  With
   [~batched] each sample times back-to-back passes spanning at least
   1 ms, as many as one timed warm-up pass says fit, and reports ns per
   pass, so one host hiccup moves a sample by a fraction of a pass *)
let timed ?(batched = false) name ~region ~runs f =
  let ops =
    if not batched then 1
    else
      let warm = Workload.Bench_clock.time_ns ~region f in
      max 1 (int_of_float (Float.ceil (1e6 /. Float.max 1. warm)))
  in
  let samples = Workload.Bench_clock.sorted_ns_per_op ~region ~runs ~ops f in
  let median = List.nth samples (runs / 2) in
  ( median,
    [ (name ^ "_ns", jfix 1 median);
      (name ^ "_min_ns", jfix 1 (List.hd samples));
      (name ^ "_max_ns", jfix 1 (List.nth samples (runs - 1)));
      (name ^ "_passes_per_sample", jint ops) ] )

(* one scrub pass, which must repair exactly [repaired] lines *)
let scrub_expecting p ~what ~repaired =
  let report = P.scrub p in
  if report.Romulus.Engine.repaired <> repaired then
    failwith
      (Printf.sprintf "scrub: %s repaired %d lines, %d expected" what
         report.Romulus.Engine.repaired repaired)

(* one record row *)
let measure ~keys ~runs =
  let r = Pmem.Region.create ~size:(1 lsl 21) () in
  let p = P.open_region r in
  let h = H.create ~initial_buckets:64 p ~root:0 in
  for i = 0 to keys - 1 do
    ignore (H.put h i (i * 7))
  done;
  (* settle to a durable image and warm the sidecar (first audit fills
     every lazily-invalidated entry) *)
  Pmem.Region.crash r Pmem.Region.Drop_all;
  P.recover p;
  let report = P.scrub p in
  let lines = report.Romulus.Engine.scrubbed in
  let span_bytes =
    match P.media_spans p with (_, span) :: _ -> span | [] -> 0
  in
  let clean_ns, clean =
    timed ~batched:true "clean_pass" ~region:r ~runs (fun () ->
        scrub_expecting p ~what:"clean pass" ~repaired:0)
  in
  let mbase, mspan = List.hd (P.media_spans p) in
  let line_size = Pmem.Region.line_size r in
  (* the same lines through the bare CRC: the header's, then each
     span's *)
  let image = Bytes.of_string (Pmem.Region.persistent_snapshot r) in
  let ranges =
    (0, (mbase / line_size) - 1)
    :: List.map
         (fun (base, span) -> (base / line_size, (base + span - 1) / line_size))
         (P.media_spans p)
  in
  let crc_lines =
    List.fold_left (fun n (a, b) -> n + b - a + 1) 0 ranges
  in
  if crc_lines <> lines then
    failwith
      (Printf.sprintf "scrub: calibration covers %d lines, the pass %d"
         crc_lines lines);
  let crc_ns, _ =
    timed ~batched:true "crc" ~region:r ~runs (fun () ->
        List.iter
          (fun (a, b) ->
            for l = a to b do
              ignore (Pmem.Crc32.bytes image (l * line_size) line_size : int)
            done)
          ranges)
  in
  (* rot a spread of main-copy lines, then time the repairing pass: one
     pass per sample, since each must rot the lines again *)
  let first = (mbase + line_size - 1) / line_size in
  let last = (mbase + mspan - 1) / line_size in
  let rotten = min 32 (last - first + 1) in
  let _, repair =
    timed "repair_pass" ~region:r ~runs (fun () ->
        for i = 0 to rotten - 1 do
          Pmem.Region.corrupt_line r
            ~line:(first + (i * (last - first) / max 1 rotten))
        done;
        scrub_expecting p ~what:"repair pass" ~repaired:rotten)
  in
  let per_line ns = if lines = 0 then nan else ns /. float_of_int lines in
  let ns_per_line = per_line clean_ns and crc_ns_per_line = per_line crc_ns in
  Common.Json.Obj
    ([ ("keys", jint keys); ("span_bytes", jint span_bytes);
       ("lines_scrubbed", jint lines); ("runs", jint runs) ]
    @ clean
    @ [ ("ns_per_line", jfix 2 ns_per_line);
        ("crc_ns_per_line", jfix 2 crc_ns_per_line);
        ("ns_per_line_over_crc", jfix 3 (ns_per_line /. crc_ns_per_line));
        ("rotten_lines", jint rotten) ]
    @ repair)

let run_rows ~scale ~key_axis ~runs ~path =
  let rows = List.map (fun keys -> measure ~keys ~runs) key_axis in
  Common.print_json (Arr rows);
  Common.write_json path
    (Obj
       [ ("bench", Str "scrub"); ("scale", Str scale); ("ptm", Str "romL");
         ("results", Arr rows) ])

let run scale =
  Common.section "scrub overhead (RomulusLog, CRC-32 sidecar audit)";
  let key_axis, runs =
    match scale with
    | Common.Quick -> ([ 256; 1_024; 4_096 ], 5)
    | Common.Full -> ([ 256; 1_024; 4_096; 16_384 ], 9)
  in
  run_rows
    ~scale:(match scale with Common.Quick -> "quick" | Common.Full -> "full")
    ~key_axis ~runs ~path:"BENCH_scrub.json"

(* Tiny parameters: one small heap, three runs, and the JSON emission,
   so CI catches bench bitrot cheaply. *)
let smoke () =
  Common.smoke_json ~name:"scrub"
    ~keys:[ "bench"; "scale"; "ptm"; "results" ]
    (fun path -> run_rows ~scale:"smoke" ~key_axis:[ 64 ] ~runs:3 ~path)
