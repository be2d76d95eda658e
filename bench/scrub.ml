(* Scrub-overhead datapoints: what a media-audit pass costs on a live
   RomulusLog heap.  Three numbers per heap size, emitted to
   BENCH_scrub.json:

   - the cost of one clean scrub pass (CRC verification of every clean
     line in both twins' used spans — the steady-state background cost);
   - the per-line cost of that pass;
   - the cost of a pass that additionally repairs rotten lines from the
     twin (detection + copy + write-back + fence).

   Commit-path overhead of the sidecar itself is not measured separately:
   maintenance is O(1) per line write-back (a 4-byte blit and two flag
   stores), invisible next to the pwb it rides on. *)

module P = Romulus.Logged
module H = Pds.Hash_map.Make (P)

let jint, jfix = Common.(jint, jfix)

(* [runs] timings of one call: the median, and the record fields
   [name]_ns (the median), [name]_min_ns and [name]_max_ns *)
let timed name ~region ~runs f =
  let samples = Workload.Bench_clock.sorted_ns_per_op ~region ~runs ~ops:1 f in
  let median = List.nth samples (runs / 2) in
  ( median,
    [ (name ^ "_ns", jfix 1 median);
      (name ^ "_min_ns", jfix 1 (List.hd samples));
      (name ^ "_max_ns", jfix 1 (List.nth samples (runs - 1))) ] )

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
    timed "clean_pass" ~region:r ~runs (fun () ->
        ignore (P.scrub p : Romulus.Engine.scrub_report))
  in
  (* rot a spread of main-copy lines, then time the repairing pass *)
  let mbase, mspan = List.hd (P.media_spans p) in
  let line_size = Pmem.Region.line_size r in
  let first = (mbase + line_size - 1) / line_size in
  let last = (mbase + mspan - 1) / line_size in
  let rotten = min 32 (last - first + 1) in
  let _, repair =
    timed "repair_pass" ~region:r ~runs (fun () ->
        for i = 0 to rotten - 1 do
          Pmem.Region.corrupt_line r
            ~line:(first + (i * (last - first) / max 1 rotten))
        done;
        ignore (P.scrub p : Romulus.Engine.scrub_report))
  in
  let ns_per_line =
    if lines = 0 then nan else clean_ns /. float_of_int lines
  in
  Common.Json.Obj
    ([ ("keys", jint keys); ("span_bytes", jint span_bytes);
       ("lines_scrubbed", jint lines); ("runs", jint runs) ]
    @ clean
    @ [ ("ns_per_line", jfix 2 ns_per_line); ("rotten_lines", jint rotten) ]
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
