(* RomulusLog with the four entry points a client operation reaches the
   engine and the allocator through wrapped in {!Trace} spans.  It is a
   [Sharded_db.SHARD_PTM], so the benchmark instantiates the unmodified
   [Group_commit]/[Sharded_db] functors over it and times every layer
   from outside, through public entry points only.

   [Sharded_db] and [Str_hash_map] nest update transactions (a put opens
   one inside the batch's), and reads nest inside updates.  Only the
   outermost call of each kind is a span; nested calls are counted. *)

include Romulus.Logged
module L = Romulus.Logged

let update_depth = ref 0
let read_depth = ref 0

let inside depth f =
  incr depth;
  match f () with
  | v -> decr depth; v
  | exception e -> decr depth; raise e

let update_tx p f =
  if !update_depth > 0 then begin
    incr Trace.update_nested;
    L.update_tx p f
  end
  else begin
    incr Trace.update_outer;
    if not !Trace.on then inside update_depth (fun () -> L.update_tx p f)
    else begin
      let body () =
        let v = Trace.timed Trace.s_body f in
        Trace.body_ns := !Trace.body_ns + !Trace.last_ns;
        v
      in
      let v =
        Trace.timed Trace.s_update (fun () ->
            inside update_depth (fun () -> L.update_tx p body))
      in
      Trace.update_ns := !Trace.update_ns + !Trace.last_ns;
      Trace.op_engine_ns := !Trace.op_engine_ns + !Trace.last_ns;
      incr Trace.timed_updates;
      v
    end
  end

let read_tx p f =
  if !update_depth > 0 || !read_depth > 0 then begin
    incr Trace.read_nested;
    L.read_tx p f
  end
  else begin
    incr Trace.read_outer;
    if not !Trace.on then inside read_depth (fun () -> L.read_tx p f)
    else begin
      let v =
        Trace.timed Trace.s_read (fun () ->
            inside read_depth (fun () -> L.read_tx p f))
      in
      Trace.read_ns := !Trace.read_ns + !Trace.last_ns;
      Trace.op_engine_ns := !Trace.op_engine_ns + !Trace.last_ns;
      incr Trace.timed_reads;
      v
    end
  end

let alloc p n =
  incr Trace.allocs;
  if not !Trace.on then L.alloc p n
  else begin
    let v = Trace.timed Trace.s_alloc (fun () -> L.alloc p n) in
    Trace.alloc_ns := !Trace.alloc_ns + !Trace.last_ns;
    incr Trace.timed_allocs;
    v
  end

let free p off =
  incr Trace.frees;
  if not !Trace.on then L.free p off
  else begin
    Trace.timed Trace.s_free (fun () -> L.free p off);
    Trace.free_ns := !Trace.free_ns + !Trace.last_ns;
    incr Trace.timed_frees
  end
