(* Span recorder and per-layer accumulators behind {!Traced_ptm}.

   Counts are kept for every call; timestamps are taken only while [on]
   is set, which the benchmark loop flips per operation (an A/B coin), so
   the untimed operations of the same run measure what tracing costs.
   Spans go to preallocated arrays (the first [capacity] of them; the
   rest are only aggregated) and are written out as Chrome trace-event
   JSON when the run ends.  Nothing here allocates while recording. *)

let now () = Int64.to_int (Monotonic_clock.now ())

let on = ref false

(* ---- counts (every call) ---- *)

let update_outer = ref 0
let update_nested = ref 0
let read_outer = ref 0
let read_nested = ref 0
let allocs = ref 0
let frees = ref 0

(* ---- time (only while [on]) ---- *)

let update_ns = ref 0   (* outermost update_tx, wall *)
let body_ns = ref 0     (* the closure of those update_txs *)
let read_ns = ref 0     (* outermost read_tx *)
let alloc_ns = ref 0
let free_ns = ref 0
let timed_updates = ref 0
let timed_reads = ref 0
let timed_allocs = ref 0
let timed_frees = ref 0

(* engine time spent inside the current client operation; the loop
   resets it before each timed operation *)
let op_engine_ns = ref 0

(* ---- spans ---- *)

let names =
  [| "op.get"; "op.write"; "engine.update_tx"; "engine.tx_body";
     "engine.read_tx"; "palloc.alloc"; "palloc.free" |]

let s_update = 2
let s_body = 3
let s_read = 4
let s_alloc = 5
let s_free = 6

(* allocated by [reset], so untraced runs do not carry the buffers *)
let capacity = 1 lsl 17
let sp_name = ref [||]
let sp_start = ref [||]
let sp_end = ref [||]
let sp_parent = ref [||]
let sp_op = ref [||]
let spans = ref 0
let dropped = ref 0
let parent = ref (-1)
let op_id = ref 0

(* Open a span starting at [t]; returns its slot (or -1 when the buffer
   is full) and makes it the parent of spans opened until [close_span]. *)
let open_span name t =
  if !spans < Array.length !sp_name then begin
    let i = !spans in
    incr spans;
    !sp_name.(i) <- name;
    !sp_start.(i) <- t;
    !sp_end.(i) <- t;
    !sp_parent.(i) <- !parent;
    !sp_op.(i) <- !op_id;
    parent := i;
    i
  end
  else begin
    incr dropped;
    -1
  end

let close_span i t =
  if i >= 0 then begin
    !sp_end.(i) <- t;
    parent := !sp_parent.(i)
  end

(* Duration of the span [timed] closed last. *)
let last_ns = ref 0

(* Run [f] as span [name].  A raising [f] leaves no open span behind. *)
let timed name f =
  let saved = !parent in
  let t0 = now () in
  let sp = open_span name t0 in
  match f () with
  | v ->
    let t1 = now () in
    close_span sp t1;
    last_ns := t1 - t0;
    v
  | exception e ->
    parent := saved;
    raise e

let reset () =
  List.iter (fun r -> r := 0)
    [ update_outer; update_nested; read_outer; read_nested; allocs; frees;
      update_ns; body_ns; read_ns; alloc_ns; free_ns; timed_updates;
      timed_reads; timed_allocs; timed_frees; op_engine_ns; spans; dropped;
      op_id ];
  parent := -1;
  on := false;
  List.iter (fun a -> if Array.length !a = 0 then a := Array.make capacity 0)
    [ sp_name; sp_start; sp_end; sp_parent; sp_op ]

(* Chrome trace-event format: one complete ("X") event per span, times in
   microseconds relative to the first span. *)
let write_chrome path =
  let base = if !spans > 0 then !sp_start.(0) else 0 in
  let us ns = float_of_int ns /. 1e3 in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "{\"traceEvents\":[\n";
      for i = 0 to !spans - 1 do
        Printf.fprintf oc
          "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\
           \"dur\":%.3f,\"args\":{\"span\":%d,\"parent\":%d,\"op\":%d}}"
          (if i = 0 then "" else ",\n")
          names.(!sp_name.(i))
          (us (!sp_start.(i) - base))
          (us (!sp_end.(i) - !sp_start.(i)))
          i !sp_parent.(i) !sp_op.(i)
      done;
      Printf.fprintf oc "\n],\"otherData\":{\"dropped_spans\":%d}}\n" !dropped)
