open E2e_bench

(* End-to-end KV benchmark: client -> Group_commit -> Sharded_db (4
   shards) -> RomulusLog engine -> Palloc -> Pmem.Region (STT-RAM fence
   costs).  See README.md for the workloads, metrics and bounds.

     e2e.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
             [--trace-out FILE]
     e2e.exe --smoke [--benchmark-json FILE]
     e2e.exe --record FILE [--runs N] [--seed N] [--seconds S]
     e2e.exe --compare FILE [--runs N]

   A run prints every metric with its unit and, as its last line, one
   JSON object {correct, attempted, failed, metrics}; it exits non-zero
   when an output check fails. *)

module Plain = Run.Make (Romulus.Logged)
module Traced = Run.Make (Traced_ptm)

let run_one spec ~seed ~ops ~traced ~trace_out =
  if traced then Traced.run spec ~seed ~ops ~traced ~trace_out
  else Plain.run spec ~seed ~ops ~traced ~trace_out

let correct (r : Run.result) = List.for_all snd r.checks

let unit_of name = match Metrics.find name with Some m -> m.unit | None -> ""

let result_json (r : Run.result) =
  Json.Obj
    [ ("correct", Json.Bool (correct r));
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, v) ->
               (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str (unit_of name)) ]))
             r.metrics) ) ]

let print_result (spec : Workload.spec) ~seed ~ops ~traced (r : Run.result) =
  Printf.printf "workload=%s seed=%d ops=%d trace=%d\n" spec.name seed ops
    (Bool.to_int traced);
  List.iter
    (fun (name, (w : Hist.windowed)) ->
      let h = w.all in
      if Hist.count h > 0 then begin
        Printf.printf "  %-12s n=%d windows=%d whole-run p50=%.2fus p99=%.2fus" name
          (Hist.count h) (List.length w.closed)
          (Hist.percentile h 0.5 /. 1e3)
          (Hist.percentile h 0.99 /. 1e3);
        (match Hist.highest_supported h with
         | Some (label, p) ->
           Printf.printf " highest supported %s=%.2fus" label
             (Hist.percentile h p /. 1e3)
         | None -> ());
        print_newline ()
      end)
    r.hists;
  List.iter
    (fun (name, v) -> Printf.printf "  %-32s %14.4f %s\n" name v (unit_of name))
    r.metrics;
  List.iter (fun (name, v) -> Printf.printf "  %-32s %14.4f\n" name v) r.notes;
  Printf.printf "  %-32s %14.4f (%d of %d)\n" "failed_frac"
    (float_of_int r.failed /. float_of_int (max 1 r.attempted))
    r.failed r.attempted;
  Printf.printf "  %-32s %14d\n" "lost_acked_writes" r.lost_acked;
  List.iter
    (fun (name, ok) -> Printf.printf "  check %-48s %s\n" name (if ok then "ok" else "FAIL"))
    r.checks

(* ---- one measured run (the benchmark command) ---- *)

let spec_of name =
  match Workload.find name with
  | Some spec -> spec
  | None ->
    Printf.eprintf "unknown workload %S (have: %s)\n" name
      (String.concat ", " (List.map (fun (w : Workload.spec) -> w.name) Workload.all));
    exit 2

let single ~workload ~seed ~seconds ~traced ~trace_out =
  let spec = spec_of workload in
  let ops = spec.ops_per_s * seconds in
  let r = run_one spec ~seed ~ops ~traced ~trace_out in
  print_result spec ~seed ~ops ~traced r;
  print_endline (Json.to_string (result_json r));
  if not (correct r) then exit 1

(* ---- smoke: every workload, tiny, traced and untraced ---- *)

let smoke ~benchmark_json =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let trace_out = Filename.temp_file "e2e_smoke" ".json" in
  List.iter
    (fun (spec : Workload.spec) ->
      (* a tenth of a second's nominal ops, on at most 4,096 keys *)
      let spec = { spec with keys = min spec.keys 4_096 } in
      let ops = spec.ops_per_s / 10 in
      List.iter
        (fun traced ->
          let r = run_one spec ~seed:1 ~ops ~traced ~trace_out:(Some trace_out) in
          Printf.printf "smoke %s trace=%d: %d ops\n" spec.name (Bool.to_int traced)
            r.attempted;
          List.iter (fun (name, ok) -> if not ok then fail "%s: %s" spec.name name) r.checks;
          let want = if traced then Metrics.per_layer else Metrics.end_to_end in
          List.iter
            (fun (m : Metrics.m) ->
              match List.assoc_opt m.name r.metrics with
              | None -> fail "%s: metric %s missing" spec.name m.name
              | Some v when not (Float.is_finite v) ->
                fail "%s: metric %s = %f" spec.name m.name v
              | Some v when (not traced) && v <= 0. ->
                fail "%s: end-to-end metric %s = %f" spec.name m.name v
              | Some _ -> ())
            want;
          if traced then begin
            let u = List.assoc "trace.unattributed_frac" r.metrics in
            if u > 0.03 then fail "%s: trace.unattributed_frac %.4f > 0.03" spec.name u;
            match Json.member "traceEvents" (Json.of_file trace_out) with
            | Json.Arr (_ :: _) -> ()
            | _ -> fail "%s: trace file has no events" spec.name
          end)
        [ false; true ])
    Workload.all;
  Sys.remove trace_out;
  (* BENCHMARK.json must declare exactly what this program reports *)
  Option.iter
    (fun path ->
      let j = Json.of_file path in
      let declared key =
        List.map
          (fun m ->
            List.map (fun f -> Json.to_string (Json.member f m))
              [ "name"; "unit"; "better"; "bound" ])
          (Json.to_list (Json.member key j))
      in
      let ours ms =
        List.map
          (fun (m : Metrics.m) ->
            List.map Json.to_string
              [ Json.Str m.name; Json.Str m.unit; Json.Str (Metrics.better_name m.better);
                (if Float.is_nan m.bound then Json.Null else Json.Num m.bound) ])
          ms
      in
      if declared "end_to_end" <> ours Metrics.end_to_end then
        fail "%s: end_to_end differs from the program's metrics" path;
      if declared "per_layer" <> ours Metrics.per_layer then
        fail "%s: per_layer differs from the program's metrics" path;
      if List.map (fun w -> Json.to_str (Json.member "name" w))
           (Json.to_list (Json.member "workloads" j))
         <> List.map (fun (w : Workload.spec) -> w.name) Workload.all
      then fail "%s: workloads differ from the program's" path)
    benchmark_json;
  match !failures with
  | [] -> print_endline "smoke: ok"
  | fs ->
    List.iter (Printf.printf "smoke FAIL %s\n") (List.rev fs);
    exit 1

(* ---- recorded baseline and comparison ---- *)

(* Run this program as a child for one untraced measurement and parse its
   last output line. *)
let child ~workload ~seed ~seconds =
  let args =
    [| Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed;
       "--seconds"; string_of_int seconds; "--trace"; "0" |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let lines = In_channel.input_all ic in
  (match Unix.close_process_in ic with
   | Unix.WEXITED 0 -> ()
   | _ -> failwith (Printf.sprintf "%s run failed:\n%s" workload lines));
  let last =
    List.fold_left (fun acc l -> if l = "" then acc else l)
      "" (String.split_on_char '\n' lines)
  in
  List.filter_map
    (fun (name, v) ->
      match Json.member "value" v with Json.Num x -> Some (name, x) | _ -> None)
    (match Json.member "metrics" (Json.parse last) with Json.Obj fs -> fs | _ -> [])

let samples ~workload ~seed ~seconds ~runs =
  let rs = List.init runs (fun _ -> child ~workload ~seed ~seconds) in
  List.map
    (fun (m : Metrics.m) ->
      (m, List.filter_map (List.assoc_opt m.name) rs))
    Metrics.end_to_end

let record ~path ~workloads ~seed ~seconds ~runs =
  let per_workload (spec : Workload.spec) =
    let rows =
      List.map
        (fun ((m : Metrics.m), vs) ->
          ( m.name,
            Json.Obj
              [ ("unit", Json.Str m.unit); ("better", Json.Str (Metrics.better_name m.better));
                ("bound", Json.Num m.bound); ("median", Json.Num (Hist.median vs));
                ("min", Json.Num (List.fold_left min infinity vs));
                ("max", Json.Num (List.fold_left max neg_infinity vs)) ] ))
        (samples ~workload:spec.name ~seed ~seconds ~runs)
    in
    (spec.name, Json.Obj rows)
  in
  let j =
    Json.Obj
      [ ("seed", Json.Num (float_of_int seed));
        ("seconds", Json.Num (float_of_int seconds));
        ("runs", Json.Num (float_of_int runs));
        ("workloads", Json.Obj (List.map per_workload workloads)) ]
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string j);
      output_char oc '\n');
  Printf.printf "recorded %d runs per workload to %s\n" runs path

(* One row per (workload, metric): the recorded median and [min, max],
   this commit's median, and a verdict.  A row is [unresolved] when the
   recorded run-to-run spread is wider than the bound (no verdict is
   possible), [regressed] when this commit is worse than the recorded
   median by more than the bound. *)
let compare ~path ~runs =
  let base = Json.of_file path in
  let seed = int_of_float (Json.to_num (Json.member "seed" base)) in
  let seconds = int_of_float (Json.to_num (Json.member "seconds" base)) in
  let regressed = ref 0 in
  Printf.printf "%-13s %-20s %12s %25s %12s %8s  %s\n" "workload" "metric"
    "recorded" "[min, max]" "now" "worse" "verdict";
  (match Json.member "workloads" base with
   | Json.Obj ws ->
     List.iter
       (fun (workload, rows) ->
         List.iter
           (fun ((m : Metrics.m), vs) ->
             let row = Json.member m.name rows in
             let med = Json.to_num (Json.member "median" row) in
             let lo = Json.to_num (Json.member "min" row) in
             let hi = Json.to_num (Json.member "max" row) in
             let now = Hist.median vs in
             let change = Metrics.worsening m ~base:med ~now in
             let verdict =
               if (hi -. lo) /. Float.abs med > m.bound then "unresolved"
               else if change > m.bound then (incr regressed; "regressed")
               else "ok"
             in
             Printf.printf "%-13s %-20s %12.4f [%11.4f, %11.4f] %12.4f %+7.1f%%  %s\n"
               workload m.name med lo hi now (100. *. change) verdict)
           (samples ~workload ~seed ~seconds ~runs))
       ws
   | _ -> failwith (path ^ ": no workloads"));
  if !regressed > 0 then exit 1

(* ---- command line ---- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 15 in
  let trace = ref 0 and trace_out = ref "" and smoke_mode = ref false in
  let benchmark_json = ref "" and record_to = ref "" and compare_to = ref "" in
  let runs = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_int seconds, "S nominal run length (default 15)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run (default 0)");
      ("--trace-out", Arg.Set_string trace_out, "FILE Chrome trace of a traced run");
      ("--smoke", Arg.Set smoke_mode, " tiny traced+untraced run of every workload");
      ("--benchmark-json", Arg.Set_string benchmark_json,
       "FILE with --smoke: check its names against the program's");
      ("--record", Arg.Set_string record_to, "FILE record seed medians and min/max");
      ("--compare", Arg.Set_string compare_to, "FILE compare against a record");
      ("--runs", Arg.Set_int runs, "N runs per workload for --record/--compare") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "e2e.exe: end-to-end KV benchmark (see bench/e2e/README.md)";
  let opt s = if s = "" then None else Some s in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "e2e.exe: --seconds must be >= 1 and --trace 0 or 1";
    exit 2
  end;
  if !smoke_mode then smoke ~benchmark_json:(opt !benchmark_json)
  else if !record_to <> "" then
    let workloads = if !workload = "" then Workload.all else [ spec_of !workload ] in
    record ~path:!record_to ~workloads ~seed:!seed ~seconds:!seconds
      ~runs:(if !runs > 0 then !runs else 5)
  else if !compare_to <> "" then
    compare ~path:!compare_to ~runs:(if !runs > 0 then !runs else 3)
  else if !workload = "" then begin
    prerr_endline "e2e.exe: --workload NAME is required (or --smoke/--record/--compare)";
    exit 2
  end
  else
    single ~workload:!workload ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1)
      ~trace_out:(opt !trace_out)
