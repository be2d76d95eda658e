(* Thread-slot registry.

   The read-indicator array and the flat-combining array are statically
   sized (one entry per thread, as in the paper's C-RW-WP implementation),
   so every participating domain needs a small dense id.  Slots are taken
   from a shared pool; [with_slot] bounds the lifetime so that domains
   spawned in a loop do not exhaust the pool. *)

let max_threads = 128

let pool = Array.init max_threads (fun _ -> Atomic.make false)

let key : int option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

exception Too_many_threads

let acquire_slot () =
  let rec scan i =
    if i >= max_threads then raise Too_many_threads
    else if Atomic.compare_and_set pool.(i) false true then i
    else scan (i + 1)
  in
  scan 0

let release_slot i = Atomic.set pool.(i) false

let with_slot f =
  match Domain.DLS.get key with
  | Some tid -> f tid (* already registered: reuse, do not release *)
  | None ->
    let tid = acquire_slot () in
    Domain.DLS.set key (Some tid);
    Fun.protect
      ~finally:(fun () ->
        Domain.DLS.set key None;
        release_slot tid)
      (fun () -> f tid)

(* The current domain's slot; the main domain (and any domain that calls
   this outside [with_slot]) lazily takes a slot it keeps until the
   domain exits. *)
let current () =
  match Domain.DLS.get key with
  | Some tid -> tid
  | None ->
    let tid = acquire_slot () in
    Domain.DLS.set key (Some tid);
    Domain.at_exit (fun () -> release_slot tid);
    tid

(* A registration watermark over the slots is 1 + the highest slot that
   registered; scans stop there.  Monotone: a CAS loop that only raises. *)
let rec cover hi tid =
  let cur = Atomic.get hi in
  if tid >= cur && not (Atomic.compare_and_set hi cur (tid + 1)) then
    cover hi tid
