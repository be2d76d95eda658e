(* A small discrete-event simulator: a binary min-heap of timestamped
   events with a deterministic PRNG.  Used to extrapolate multi-thread
   throughput figures from measured single-thread costs — the
   measurement host has 2 shared vCPUs ([nproc] = 2), so the paper's
   64-thread scalability shapes cannot be reproduced with wall-clock runs
   (see DESIGN.md).

   Events scheduled at equal times fire in scheduling order (a sequence
   number breaks ties), which keeps runs fully deterministic. *)

type event = {
  time : float;
  seq : int;
  action : unit -> unit;
}

type t = {
  mutable heap : event array;
  mutable size : int;
  mutable clock : float;
  mutable next_seq : int;
  mutable rng : int;
}

let dummy = { time = 0.; seq = 0; action = ignore }

let create ?(seed = 0x5EED) () =
  { heap = Array.make 256 dummy;
    size = 0;
    clock = 0.;
    next_seq = 0;
    rng = (if seed = 0 then 1 else seed) }

let now t = t.clock

let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let push t e =
  if t.size = Array.length t.heap then begin
    let bigger = Array.make (2 * t.size) dummy in
    Array.blit t.heap 0 bigger 0 t.size;
    t.heap <- bigger
  end;
  t.heap.(t.size) <- e;
  t.size <- t.size + 1;
  (* sift up *)
  let i = ref (t.size - 1) in
  while
    !i > 0
    &&
    let p = (!i - 1) / 2 in
    before t.heap.(!i) t.heap.(p)
  do
    let p = (!i - 1) / 2 in
    let tmp = t.heap.(p) in
    t.heap.(p) <- t.heap.(!i);
    t.heap.(!i) <- tmp;
    i := p
  done

let pop t =
  let top = t.heap.(0) in
  t.size <- t.size - 1;
  t.heap.(0) <- t.heap.(t.size);
  t.heap.(t.size) <- dummy;
  (* sift down *)
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < t.size && before t.heap.(l) t.heap.(!smallest) then smallest := l;
    if r < t.size && before t.heap.(r) t.heap.(!smallest) then smallest := r;
    if !smallest <> !i then begin
      let tmp = t.heap.(!smallest) in
      t.heap.(!smallest) <- t.heap.(!i);
      t.heap.(!i) <- tmp;
      i := !smallest
    end
    else continue := false
  done;
  top

let schedule t delay action =
  if delay < 0. then invalid_arg "Des.schedule: negative delay";
  let e = { time = t.clock +. delay; seq = t.next_seq; action } in
  t.next_seq <- t.next_seq + 1;
  push t e

(* Run events until the queue drains or the clock passes [until]. *)
let run t ~until =
  let continue = ref true in
  while !continue && t.size > 0 do
    if t.heap.(0).time > until then continue := false
    else begin
      let e = pop t in
      t.clock <- e.time;
      e.action ()
    end
  done;
  t.clock <- max t.clock until

(* xorshift64*; uniform in [0, 1) *)
let random t =
  let x = ref t.rng in
  x := !x lxor (!x lsl 13);
  x := !x lxor (!x lsr 7);
  x := !x lxor (!x lsl 17);
  t.rng <- !x;
  float_of_int (!x land max_int) /. float_of_int max_int
