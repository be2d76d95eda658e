(* A set of cache-line indices with 3-state marks, tuned for the access
   pattern of the region simulator: lines transition CLEAN -> DIRTY ->
   PENDING -> CLEAN, and fences visit only the non-clean lines.

   The [members] stack holds every line whose mark is non-clean (each line
   appears at most once: lines are pushed only on the CLEAN -> non-clean
   transition).  [flush_pending] compacts the stack in place, keeping the
   lines that remain dirty. *)

type mark = Clean | Dirty | Pending

type t = {
  marks : Bytes.t;                (* one byte per line *)
  mutable members : int array;    (* non-clean line indices *)
  mutable n : int;
}

let clean = '\000'
let dirty = '\001'
let pending = '\002'

let create ~lines =
  { marks = Bytes.make lines clean; members = Array.make 64 0; n = 0 }

let mark t line : mark =
  match Bytes.unsafe_get t.marks line with
  | '\000' -> Clean
  | '\001' -> Dirty
  | _ -> Pending

let push t line =
  if t.n = Array.length t.members then begin
    let bigger = Array.make (2 * t.n) 0 in
    Array.blit t.members 0 bigger 0 t.n;
    t.members <- bigger
  end;
  t.members.(t.n) <- line;
  t.n <- t.n + 1

(* Mark [line] dirty; no-op if already dirty or pending (a pending line that
   is re-stored keeps its pending status: the pwb already issued still covers
   the line in our conservative model, and the caller will pwb it again). *)
let set_dirty t line =
  match mark t line with
  | Clean -> Bytes.unsafe_set t.marks line dirty; push t line
  | Dirty | Pending -> ()

(* Promote a dirty line to pending (pwb issued).  Marking a clean line
   pending is accepted and recorded: flushing a clean line is harmless. *)
let set_pending t line =
  match mark t line with
  | Clean -> Bytes.unsafe_set t.marks line pending; push t line
  | Dirty -> Bytes.unsafe_set t.marks line pending
  | Pending -> ()

(* Mark a line clean (used by synchronous CLFLUSH-style pwbs, which
   persist the line on the spot).  A stale entry may remain in the member
   stack; it is dropped at the next compaction. *)
let set_clean t line = Bytes.unsafe_set t.marks line clean

let is_clean t line = mark t line = Clean

let rec clean_run t line last =
  if line > last || Bytes.unsafe_get t.marks line <> clean then line
  else clean_run t (line + 1) last

(* The first non-clean line of [first, last], or [last + 1]. *)
let first_non_clean t ~first ~last =
  if first <= last && (first < 0 || last >= Bytes.length t.marks) then
    invalid_arg "Line_set.first_non_clean: lines outside the set";
  clean_run t first last

(* Call [f line] for every pending line and mark it clean; dirty lines are
   kept.  Compacts the member stack in place. *)
let flush_pending t f =
  let kept = ref 0 in
  for i = 0 to t.n - 1 do
    let line = t.members.(i) in
    match mark t line with
    | Pending ->
      f line;
      Bytes.unsafe_set t.marks line clean
    | Dirty ->
      t.members.(!kept) <- line;
      incr kept
    | Clean -> ()
  done;
  t.n <- !kept

(* Call [f line was_pending] for every non-clean line and mark everything
   clean.  Used by the crash simulation. *)
let drain_all t f =
  for i = 0 to t.n - 1 do
    let line = t.members.(i) in
    match mark t line with
    | Pending -> f line true; Bytes.unsafe_set t.marks line clean
    | Dirty -> f line false; Bytes.unsafe_set t.marks line clean
    | Clean -> ()
  done;
  t.n <- 0

let cardinal t =
  let c = ref 0 in
  for i = 0 to t.n - 1 do
    if mark t t.members.(i) <> Clean then incr c
  done;
  !c
