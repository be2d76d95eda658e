(* Benchmark harness entry point: one sub-experiment per table/figure of
   the paper's evaluation (§6).  With no arguments every experiment runs
   with quick parameters; --full uses paper-scale parameters. *)

let experiments : (string * string * (Common.scale -> unit)) list =
  [ ("table1", "fence/amplification comparison (Table 1)", Table1.run);
    ("fig4", "data-structure throughput, 1k keys (Figure 4)", Fig4.run);
    ("fig5", "fixed hash map speedup vs PMDK (Figure 5)", Fig5.run);
    ("fig6", "hash map with growing key counts (Figure 6)", Fig6.run);
    ("fig7", "read-dominated workloads (Figure 7)", Fig7.run);
    ("fig8", "RomulusDB vs LevelDB (Figure 8)", Fig8.run);
    ("fig9", "SPS benchmark, fence types (Figure 9)", Fig9.run);
    ("recovery", "recovery cost (6.5)", Recovery.run);
    ("pwbhist", "pwb-per-transaction histograms (6.2)", Pwbhist.run);
    ("ablation", "design-choice ablations", Ablation.run);
    ("scrub", "media-scrub overhead (BENCH_scrub.json)", Scrub.run);
    ("shards", "Sharded_db shard scaling (BENCH_shards.json)", Shards.run);
    ("micro", "bechamel microbenchmarks", Micro.run) ]

(* Runnable by name (and via the @bench-smoke alias) but excluded from the
   default "all" set.  The smoke runs write their JSON to a temporary
   file and check its shape, so they never overwrite a BENCH_*.json. *)
let hidden : (string * string * (Common.scale -> unit)) list =
  [ ("scrub_smoke", "media-scrub overhead, tiny parameters (CI smoke)",
     fun _ -> Scrub.smoke ());
    ("shards_smoke", "every shard section and its checks, tiny (CI smoke)",
     fun _ -> Shards.smoke ()) ]

let usage () =
  print_endline "usage: main.exe [--full] [EXPERIMENT]...";
  print_endline "experiments:";
  List.iter
    (fun (name, doc, _) -> Printf.printf "  %-10s %s\n" name doc)
    experiments;
  print_endline "  all        run everything (default)"

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let full = List.mem "--full" args in
  let scale = if full then Common.Full else Common.Quick in
  let names = List.filter (fun a -> a <> "--full" && a <> "all") args in
  if List.mem "--help" names || List.mem "-h" names then usage ()
  else begin
    let to_run =
      if names = [] then experiments
      else
        List.map
          (fun n ->
            match
              List.find_opt
                (fun (name, _, _) -> name = n)
                (experiments @ hidden)
            with
            | Some e -> e
            | None ->
              usage ();
              failwith ("unknown experiment " ^ n))
          names
    in
    Printf.printf "romulus-repro benchmarks (%s scale)\n"
      (if full then "full" else "quick");
    List.iter (fun (_, _, f) -> f scale) to_run
  end
