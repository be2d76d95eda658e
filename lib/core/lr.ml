(* RomulusLR (§5.3): the twin-copy engine composed with the Left-Right
   universal construct.  Read-only transactions are wait-free: they
   arrive on a read indicator and read whichever copy the control variable
   designates — the back copy is read through synthetic pointers (every
   dereferenced address is offset by main_size, Figure 3).

   Update transactions always execute on main (which keeps the allocator
   oblivious to the two instances) and toggle the control variable twice:

     user code on main .. commit_main (psync: main durable)
     lr <- main; drain back readers        (new state becomes visible)
     replicate modified ranges to back
     lr <- back; drain main readers        (main free for the next writer)

   Readers may only be directed at main after psync, so everything a
   reader can observe is durable (durable linearizability). *)

open Sync_prims

type t = {
  e : Engine.t;
  lr : Left_right.t;
  fc : Flat_combining.t;
}

let name = "romLR"

(* Failpoints for the two Left-Right-specific windows: readers have been
   redirected to the freshly committed main (back is stale, durably so),
   and the symmetric point after replication sent them back. *)
let fp_readers_on_main = Fault.site "romLR.update.readers_on_main"
let fp_readers_on_back = Fault.site "romLR.update.readers_on_back"

let inst_main = 0
let inst_back = 1

let open_salvage r =
  let e, lost = Engine.open_salvage ~mode:Engine.Logged r in
  ( { e; lr = Left_right.create ~initial_lr:inst_back ();
      fc = Flat_combining.create () },
    lost )

let open_region r = fst (open_salvage r)

let region t = Engine.region t.e

let in_update_key : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)
let read_depth_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

(* Synthetic-pointer offset of the current domain: 0 when addressing main,
   main_size when addressing back. *)
let delta_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

let in_update () = Domain.DLS.get in_update_key
let read_depth () = Domain.DLS.get read_depth_key
let delta () = Domain.DLS.get delta_key

let read_tx t f =
  if in_update () || read_depth () > 0 then f ()
  else begin
    let tid = Tid.current () in
    let v = Left_right.arrive t.lr tid in
    let d =
      if Left_right.which_instance t.lr = inst_back then Engine.main_size t.e
      else 0
    in
    Domain.DLS.set delta_key d;
    Domain.DLS.set read_depth_key 1;
    Fun.protect
      ~finally:(fun () ->
        Domain.DLS.set read_depth_key 0;
        Domain.DLS.set delta_key 0;
        Left_right.depart t.lr tid v)
      f
  end

let update_tx t f =
  if in_update () then f ()
  else begin
    let result = ref None in
    let request () =
      Domain.DLS.set in_update_key true;
      Fun.protect
        ~finally:(fun () -> Domain.DLS.set in_update_key false)
        (fun () -> result := Some (f ()))
    in
    let exec run_batch =
      (* before the CPY durability point a raising request (or injected
         fault, even one inside begin_tx itself) aborts the attempt:
         readers never left the back copy, so the Left-Right state needs
         no repair — only the twin-copy roll back that abort_main
         performs *)
      (try
         Engine.begin_tx t.e;
         run_batch ();
         Engine.commit_main t.e
       with e -> Engine.abort_main t.e e);
      match
        (* expose the new state: readers move to main (already durable) *)
        Left_right.set_lr t.lr inst_main;
        Left_right.toggle_version_and_wait t.lr;
        Fault.hit fp_readers_on_main;
        Engine.replicate t.e;
        (* send readers back to the back copy, freeing main for the next
           update transaction *)
        Left_right.set_lr t.lr inst_back;
        Left_right.toggle_version_and_wait t.lr;
        Fault.hit fp_readers_on_back;
        Engine.finish_tx t.e
      with
      | () -> ()
      | exception e ->
        (* post-durability windows are crash-only, so this is (virtually
           always) a simulated crash — but the volatile Left-Right state
           must honour its invariant before the combiner lock is
           released: park new readers on back and drain main, so a
           subsequent writer (after recovery) finds main free *)
        Left_right.set_lr t.lr inst_back;
        Left_right.toggle_version_and_wait t.lr;
        raise e
    in
    Flat_combining.apply t.fc request ~exec;
    match !result with Some v -> v | None -> assert false
  end

(* A domain inside a read-only transaction must never store, even when a
   combiner elsewhere has an engine transaction open (the engine's own
   in-transaction check cannot tell the two domains apart) — and a
   back-reader's synthetic-pointer delta must never leak into a store. *)
let check_not_read_only () =
  if read_depth () > 0 && not (in_update ()) then
    raise Engine.Store_outside_transaction

let load t off = Engine.load_off t.e (delta ()) off
let load_bytes t off len = Engine.load_bytes_off t.e (delta ()) off len

let store t off v =
  check_not_read_only ();
  Engine.store t.e off v

let store_bytes t off s =
  check_not_read_only ();
  Engine.store_bytes t.e off s

let alloc t n =
  check_not_read_only ();
  Engine.alloc t.e n

let free t p =
  check_not_read_only ();
  Engine.free t.e p

let get_root t i = Engine.get_root_off t.e (delta ()) i

let set_root t i v =
  check_not_read_only ();
  Engine.set_root t.e i v

(* test hooks *)
let engine t = t.e

let recover t =
  Engine.recover t.e;
  Left_right.set_lr t.lr inst_back

let recover_salvage t =
  let lost = Engine.recover_salvage t.e in
  Left_right.set_lr t.lr inst_back;
  lost

let scrub t = Engine.scrub t.e
let scrub_salvage t = Engine.scrub_salvage t.e
let media_spans t = Engine.media_spans t.e
let heap_end t = Engine.heap_end t.e
let allocator_check t = Engine.allocator_check t.e

(* debug hook: the calling domain's current synthetic-pointer offset *)
let current_delta () = delta ()
