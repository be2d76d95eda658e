(* Shared benchmark infrastructure: the PTM roster, run parameters
   (quick vs full/paper-scale), and table formatting. *)

module type PTM = Romulus.Ptm_intf.S

let all_ptms : (string * (module PTM)) list =
  [ ("rom", (module Romulus.Basic));
    ("romL", (module Romulus.Logged));
    ("romLR", (module Romulus.Lr));
    ("mne", (module Baselines.Redolog));
    ("pmdk", (module Baselines.Undolog)) ]

let ptm_named name =
  match List.assoc_opt name all_ptms with
  | Some m -> m
  | None -> failwith ("unknown PTM " ^ name)

type scale = Quick | Full

let threads_axis = function
  | Quick -> [ 1; 2; 4; 8; 16; 32; 64 ]
  | Full -> [ 1; 2; 4; 8; 16; 24; 32; 48; 64 ]

(* measurement effort *)
let measure_ops = function Quick -> 2_000 | Full -> 20_000
let measure_runs = function Quick -> 3 | Full -> 5

let sim_duration_ns = function Quick -> 2e7 | Full -> 2e8

(* ---- output ---- *)

(* Smoke runs write their JSON to a temporary file, never over a
   committed BENCH_*.json row, and check only that it has [keys]. *)
let smoke_json ~name ~keys emit =
  let path = Filename.temp_file name ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      emit path;
      let got =
        match E2e_bench.Json.of_file path with
        | Obj fields -> List.map fst fields
        | _ -> failwith (name ^ ": not a JSON object")
        | exception E2e_bench.Json.Parse_error e ->
          failwith (Printf.sprintf "%s: malformed (%s)" name e)
      in
      if got <> keys then
        failwith
          (Printf.sprintf "%s: top-level keys [%s], expected [%s]" name
             (String.concat "; " got) (String.concat "; " keys));
      Printf.printf "%s: JSON shape ok\n%!" name)

let section title = Printf.printf "\n== %s ==\n%!" title

let subsection title = Printf.printf "\n-- %s --\n%!" title

(* print a table: a header cell + one column per [cols]; rows are
   (label, value list); values rendered with [fmt] *)
let table ~header ~cols ~rows fmt =
  Printf.printf "%-14s" header;
  List.iter (fun c -> Printf.printf "%12s" c) cols;
  print_newline ();
  List.iter
    (fun (label, values) ->
      Printf.printf "%-14s" label;
      List.iter (fun v -> Printf.printf "%12s" (fmt v)) values;
      print_newline ())
    rows;
  flush stdout

let si v =
  if Float.is_nan v then "-"
  else if v >= 1e9 then Printf.sprintf "%.2fG" (v /. 1e9)
  else if v >= 1e6 then Printf.sprintf "%.2fM" (v /. 1e6)
  else if v >= 1e3 then Printf.sprintf "%.1fk" (v /. 1e3)
  else Printf.sprintf "%.1f" v

let ns v =
  if Float.is_nan v then "-"
  else if v >= 1e6 then Printf.sprintf "%.2fms" (v /. 1e6)
  else if v >= 1e3 then Printf.sprintf "%.2fus" (v /. 1e3)
  else Printf.sprintf "%.0fns" v

(* per-thread think time between operations in the simulator *)
let think_ns = 25.
