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

(* [runs] timings of one call: median, fastest and slowest *)
type timing = { median_ns : float; min_ns : float; max_ns : float }

let timed ~region ~runs f =
  let samples = Workload.Bench_clock.sorted_ns_per_op ~region ~runs ~ops:1 f in
  { median_ns = List.nth samples (runs / 2);
    min_ns = List.hd samples;
    max_ns = List.nth samples (runs - 1) }

type row = {
  keys : int;
  span_bytes : int;
  lines : int;
  runs : int;
  clean : timing;
  ns_per_line : float;
  rotten : int;
  repair : timing;
}

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
  let clean =
    timed ~region:r ~runs (fun () ->
        ignore (P.scrub p : Romulus.Engine.scrub_report))
  in
  (* rot a spread of main-copy lines, then time the repairing pass *)
  let mbase, mspan = List.hd (P.media_spans p) in
  let line_size = Pmem.Region.line_size r in
  let first = (mbase + line_size - 1) / line_size in
  let last = (mbase + mspan - 1) / line_size in
  let rotten = min 32 (last - first + 1) in
  let repair =
    timed ~region:r ~runs (fun () ->
        for i = 0 to rotten - 1 do
          Pmem.Region.corrupt_line r
            ~line:(first + (i * (last - first) / max 1 rotten))
        done;
        ignore (P.scrub p : Romulus.Engine.scrub_report))
  in
  { keys;
    span_bytes;
    lines;
    runs;
    clean;
    ns_per_line =
      (if lines = 0 then nan else clean.median_ns /. float_of_int lines);
    rotten;
    repair }

let emit_json ~scale ~path rows =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"bench\": \"scrub\",\n";
  Printf.bprintf b "  \"scale\": \"%s\",\n" scale;
  Buffer.add_string b "  \"ptm\": \"romL\",\n";
  Buffer.add_string b "  \"results\": [\n";
  let n = List.length rows in
  List.iteri
    (fun i r ->
      Printf.bprintf b
        "    {\"keys\": %d, \"span_bytes\": %d, \"lines_scrubbed\": %d, \
         \"runs\": %d, \"clean_pass_ns\": %.1f, \"clean_pass_min_ns\": %.1f, \
         \"clean_pass_max_ns\": %.1f, \"ns_per_line\": %.2f, \
         \"rotten_lines\": %d, \"repair_pass_ns\": %.1f, \
         \"repair_pass_min_ns\": %.1f, \"repair_pass_max_ns\": %.1f}%s\n"
        r.keys r.span_bytes r.lines r.runs r.clean.median_ns r.clean.min_ns
        r.clean.max_ns r.ns_per_line r.rotten r.repair.median_ns
        r.repair.min_ns r.repair.max_ns
        (if i = n - 1 then "" else ","))
    rows;
  Buffer.add_string b "  ]\n}\n";
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Buffer.output_buffer oc b);
  Printf.printf "wrote %s (%d rows)\n%!" path n

let run_rows ~scale ~key_axis ~runs ~path =
  let rows = List.map (fun keys -> measure ~keys ~runs) key_axis in
  Common.table ~header:"keys"
    ~cols:[ "span"; "lines"; "clean pass"; "ns/line"; "repair pass" ]
    ~rows:
      (List.map
         (fun r ->
           ( string_of_int r.keys,
             [ float_of_int r.span_bytes;
               float_of_int r.lines;
               r.clean.median_ns;
               r.ns_per_line;
               r.repair.median_ns ] ))
         rows)
    Common.si;
  emit_json ~scale ~path rows

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
