(* Commit-path write-set ablation: eager vs deferred line write-backs ×
   raw vs coalesced redo log, across fence profiles, on the sorted-list
   and hash-map update workloads.  "eager-raw" is the pre-optimization
   commit path (one pwb per store, one copy per raw log entry);
   "deferred-coalesced" is the current default.  Per-transaction pwb,
   copy and replicated-byte rates come from the Pmem.Stats commit-path
   counters; the matrix is emitted to BENCH_commit_path.json. *)

module P = Romulus.Logged
module L = Pds.Linked_list.Make (P)
module H = Pds.Hash_map.Make (P)

type cfg = { label : string; eager : bool; coalesce : bool }

let configs =
  [ { label = "eager-raw"; eager = true; coalesce = false };
    { label = "eager-coalesced"; eager = true; coalesce = true };
    { label = "deferred-raw"; eager = false; coalesce = false };
    { label = "deferred-coalesced"; eager = false; coalesce = true } ]

type row = {
  workload : string;
  fence : string;
  cfg : cfg;
  txs : int;
  pwbs_per_tx : float;
  fences_per_tx : float;
  copies_per_tx : float;
  replicated_b_per_tx : float;
  nvm_b_per_tx : float;
  ns_per_tx : float;
}

let measure ~fence ~cfg ~keys ~txs which =
  let r = Pmem.Region.create ~fence ~size:(1 lsl 21) () in
  let p = P.open_region r in
  Romulus.Engine.configure ~eager_pwb:cfg.eager ~coalesce:cfg.coalesce
    (P.engine p);
  let rng = Workload.Keygen.create ~seed:11 () in
  let workload, tx =
    match which with
    | `Sorted_list ->
      let l = L.create p ~root:0 in
      for i = 0 to keys - 1 do
        ignore (L.add l i)
      done;
      ( "sorted-list",
        fun () ->
          let k = Workload.Keygen.int rng keys in
          P.update_tx p (fun () ->
              ignore (L.remove l k);
              ignore (L.add l k)) )
    | `Hash_map ->
      let h = H.create p ~root:0 in
      for i = 0 to keys - 1 do
        ignore (H.put h i i)
      done;
      ( "hash-map",
        fun () ->
          let k = Workload.Keygen.int rng keys in
          P.update_tx p (fun () ->
              ignore (H.remove h k);
              ignore (H.put h k k)) )
  in
  for _ = 1 to 32 do
    tx ()
  done;
  Gc.full_major ();
  let s = Pmem.Region.stats r in
  let before = Pmem.Stats.snapshot s in
  let ns = Workload.Bench_clock.ns_per_op ~region:r ~ops:txs tx in
  let d = Pmem.Stats.since ~now:s ~past:before in
  let commits = float_of_int d.Pmem.Stats.commits in
  { workload;
    fence = fence.Pmem.Fence.name;
    cfg;
    txs = d.Pmem.Stats.commits;
    pwbs_per_tx = Pmem.Stats.pwbs_per_tx d;
    fences_per_tx = float_of_int (Pmem.Stats.fences d) /. commits;
    copies_per_tx = Pmem.Stats.copies_per_tx d;
    replicated_b_per_tx = Pmem.Stats.replicated_bytes_per_tx d;
    nvm_b_per_tx = float_of_int d.Pmem.Stats.nvm_bytes /. commits;
    ns_per_tx = ns }

(* ---- output ---- *)

let print_matrix rows =
  let groups =
    List.sort_uniq compare (List.map (fun r -> (r.workload, r.fence)) rows)
  in
  List.iter
    (fun (workload, fence) ->
      Common.subsection (Printf.sprintf "%s, %s fences" workload fence);
      Printf.printf "%-20s %10s %10s %10s %12s %12s %10s\n" "commit path"
        "pwb/tx" "fences/tx" "copies/tx" "repl B/tx" "NVM B/tx" "ns/tx";
      List.iter
        (fun r ->
          if r.workload = workload && r.fence = fence then
            Printf.printf "%-20s %10.1f %10.1f %10.1f %12.0f %12.0f %10.0f\n%!"
              r.cfg.label r.pwbs_per_tx r.fences_per_tx r.copies_per_tx
              r.replicated_b_per_tx r.nvm_b_per_tx r.ns_per_tx)
        rows)
    groups;
  (* headline: pwb reduction of the default path vs the seed path *)
  List.iter
    (fun workload ->
      let pick label =
        List.find_opt
          (fun r ->
            r.workload = workload && r.fence = "dram" && r.cfg.label = label)
          rows
      in
      match (pick "eager-raw", pick "deferred-coalesced") with
      | Some seed, Some opt ->
        Printf.printf
          "%s: pwb/tx %.1f -> %.1f (%.1fx), copies/tx %.1f -> %.1f, \
           replicated B/tx %.0f -> %.0f\n%!"
          workload seed.pwbs_per_tx opt.pwbs_per_tx
          (seed.pwbs_per_tx /. opt.pwbs_per_tx)
          seed.copies_per_tx opt.copies_per_tx seed.replicated_b_per_tx
          opt.replicated_b_per_tx
      | _ -> ())
    [ "sorted-list"; "hash-map" ]

let emit_json ~scale ~path rows =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"bench\": \"commit_path\",\n";
  Printf.bprintf b "  \"scale\": \"%s\",\n" scale;
  Buffer.add_string b "  \"ptm\": \"romL\",\n";
  Buffer.add_string b "  \"results\": [\n";
  let n = List.length rows in
  List.iteri
    (fun i r ->
      Printf.bprintf b
        "    {\"workload\": %S, \"fence\": %S, \"commit_path\": %S, \
         \"eager_pwb\": %b, \"coalesce\": %b, \"txs\": %d, \
         \"pwbs_per_tx\": %.3f, \"fences_per_tx\": %.3f, \
         \"copies_per_tx\": %.3f, \"replicated_bytes_per_tx\": %.1f, \
         \"nvm_bytes_per_tx\": %.1f, \"ns_per_tx\": %.1f}%s\n"
        r.workload r.fence r.cfg.label r.cfg.eager r.cfg.coalesce r.txs
        r.pwbs_per_tx r.fences_per_tx r.copies_per_tx r.replicated_b_per_tx
        r.nvm_b_per_tx r.ns_per_tx
        (if i = n - 1 then "" else ","))
    rows;
  Buffer.add_string b "  ]\n}\n";
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Buffer.output_buffer oc b);
  Printf.printf "wrote %s (%d rows)\n%!" path n

(* ---- entry points ---- *)

let run_matrix ~scale_name ~keys ~txs ~fences ~path =
  Common.section
    "commit-path write-set ablation (RomulusLog, remove/reinsert pair per tx)";
  let rows =
    List.concat_map
      (fun which ->
        List.concat_map
          (fun fence ->
            List.map
              (fun cfg -> measure ~fence ~cfg ~keys ~txs which)
              configs)
          fences)
      [ `Sorted_list; `Hash_map ]
  in
  print_matrix rows;
  emit_json ~scale:scale_name ~path rows

let run scale =
  let keys, txs =
    match scale with Common.Quick -> (512, 1_000) | Common.Full -> (2_048, 8_000)
  in
  let scale_name =
    match scale with Common.Quick -> "quick" | Common.Full -> "full"
  in
  run_matrix ~scale_name ~keys ~txs
    ~fences:Pmem.Fence.[ dram; clwb; clflush; stt ]
    ~path:"BENCH_commit_path.json"

(* Tiny parameters: exercises every config and the JSON emission in well
   under a second, so CI catches bench bitrot cheaply. *)
let smoke () =
  Common.smoke_json ~name:"commit_path"
    ~keys:[ "bench"; "scale"; "ptm"; "results" ]
    (fun path ->
      run_matrix ~scale_name:"smoke" ~keys:32 ~txs:40
        ~fences:[ Pmem.Fence.dram ] ~path)
