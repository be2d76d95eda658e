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

let sim_duration_ns = function Quick -> 2e7 | Full -> 2e8

(* ---- output ---- *)

module Json = E2e_bench.Json

(* record fields: a count, and [x] rounded to [d] decimals the way
   printf's %.*f rounds *)
let jint n = Json.Num (float_of_int n)
let jfix d x = Json.Num (float_of_string (Printf.sprintf "%.*f" d x))

(* the shortest decimal that reads back as [f]; JSON has no nan *)
let json_num f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let rec go p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || float_of_string s = f then s else go (p + 1)
    in
    go 1

(* a container of scalars (or of scalar arrays) prints on one line *)
let json_flat v =
  let rec scalar = function
    | Json.Obj _ -> false
    | Arr l -> List.for_all scalar l
    | _ -> true
  in
  match v with
  | Json.Obj fs -> List.for_all (fun (_, x) -> scalar x) fs
  | Arr l -> List.for_all scalar l
  | _ -> true

let rec json_text indent v =
  let inner = indent ^ "  " in
  let block o c items =
    if json_flat v then o ^ String.concat ", " items ^ c
    else
      o ^ "\n"
      ^ String.concat ",\n" (List.map (( ^ ) inner) items)
      ^ "\n" ^ indent ^ c
  in
  match v with
  | Json.Num f -> json_num f
  | Arr l -> block "[" "]" (List.map (json_text inner) l)
  | Obj fs ->
    block "{" "}"
      (List.map
         (fun (k, x) -> Json.to_string (Str k) ^ ": " ^ json_text inner x)
         fs)
  | v -> Json.to_string v

(* A BENCH_*.json record: one member per line down to the rows, each
   row on one line. *)
let write_json path v =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (json_text "" v);
      output_char oc '\n');
  Printf.printf "wrote %s\n%!" path

(* Smoke runs write their JSON to a temporary file, never over a
   committed BENCH_*.json row, and check only that it has [keys]. *)
let smoke_json ~name ~keys emit =
  let path = Filename.temp_file name ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      emit path;
      let got =
        match Json.of_file path with
        | Obj fields -> List.map fst fields
        | _ -> failwith (name ^ ": not a JSON object")
        | exception Json.Parse_error e ->
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

(* A record value as tables: an array of rows headed by their field
   names, an object of containers member by member.  Times (fields with
   an "ns" part, unless an "over" part makes them a ratio) print as
   times, throughputs in SI. *)
let rec json_cell k = function
  | Json.Num f
    when let parts = String.split_on_char '_' k in
         List.mem "ns" parts && not (List.mem "over" parts) -> ns f
  | Num f when String.starts_with ~prefix:"updates_per_sec" k -> si f
  | Num f -> json_num f
  | Str s -> s
  | Arr l -> String.concat " " (List.map (json_cell k) l)
  | v -> Json.to_string v

let json_table = function
  | Json.Obj fs :: _ as l ->
    let column (k, _) =
      let c = k :: List.map (fun r -> json_cell k (Json.member k r)) l in
      let w = List.fold_left (fun w s -> max w (String.length s)) 0 c in
      List.map (Printf.sprintf "%*s" w) c
    in
    let cols = List.map column fs in
    let line i _ =
      print_endline (String.concat "  " (List.map (Fun.flip List.nth i) cols))
    in
    List.iteri line (List.hd cols)
  | l -> List.iter (fun v -> print_endline (json_cell "" v)) l

let rec print_json v =
  match v with
  | Json.Arr l -> json_table l
  | Obj fs when not (json_flat v) ->
    List.iter (fun (k, x) -> Printf.printf "[%s]\n" k; print_json x) fs
  | v -> json_table [ v ]

(* per-thread think time between operations in the simulator *)
let think_ns = 25.
