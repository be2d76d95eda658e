(* RomulusLR (§5.3): the twin-copy engine composed with the Left-Right
   universal construct, as the Left-Right sync module of the
   flat-combining front ({!Fc_front}).  Read-only transactions are
   wait-free: they arrive on a read indicator and read whichever copy the
   control variable designates — the back copy is read through synthetic
   pointers (every dereferenced address is offset by main_size,
   Figure 3).

   Update transactions always execute on main (which keeps the allocator
   oblivious to the two instances) and toggle the control variable twice:

     user code on main .. commit_main (psync: main durable)
     lr <- main; drain back readers        (new state becomes visible)
     replicate modified ranges to back
     lr <- back; drain main readers        (main free for the next writer)

   Readers may only be directed at main after psync, so everything a
   reader can observe is durable (durable linearizability). *)

open Sync_prims

let inst_main = 0
let inst_back = 1

(* Synthetic-pointer offset of the current domain: 0 when addressing main,
   main_size when addressing back. *)
let delta_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

let current_delta () = Domain.DLS.get delta_key

module Left_right_sync = struct
  let mode = Engine.Logged
  let name = "romLR"

  type lock = Left_right.t

  let create_lock () = Left_right.create ~initial_lr:inst_back ()

  (* Failpoints for the two Left-Right-specific windows: readers have
     been redirected to the freshly committed main (back is stale,
     durably so), and the symmetric point after replication sent them
     back. *)
  let fp_readers_on_main = Fault.site "romLR.update.readers_on_main"
  let fp_readers_on_back = Fault.site "romLR.update.readers_on_back"

  (* the token packs the reader's thread slot and the Left-Right version
     index (0 or 1) it arrived on *)
  let arrive (t : lock Fc_front.handle) =
    let tid = Tid.current () in
    let v = Left_right.arrive t.lock tid in
    Domain.DLS.set delta_key
      (if Left_right.which_instance t.lock = inst_back then
         Engine.main_size t.e
       else 0);
    (tid lsl 1) lor v

  let depart (t : lock Fc_front.handle) token =
    Domain.DLS.set delta_key 0;
    Left_right.depart t.lock (token lsr 1) (token land 1)

  let exec (t : lock Fc_front.handle) run_batch =
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
      Left_right.set_lr t.lock inst_main;
      Left_right.toggle_version_and_wait t.lock;
      Fault.hit fp_readers_on_main;
      Engine.replicate t.e;
      (* send readers back to the back copy, freeing main for the next
         update transaction *)
      Left_right.set_lr t.lock inst_back;
      Left_right.toggle_version_and_wait t.lock;
      Fault.hit fp_readers_on_back;
      Engine.finish_tx t.e
    with
    | () -> ()
    | exception e ->
      (* post-durability windows are crash-only, so this is (virtually
         always) a simulated crash — but the volatile Left-Right state
         must honour its invariant before the combiner lock is released:
         park new readers on back and drain main, so a subsequent writer
         (after recovery) finds main free *)
      Left_right.set_lr t.lock inst_back;
      Left_right.toggle_version_and_wait t.lock;
      raise e

  (* only the reads take the delta: the front's stores always address
     main, and a back reader may not store at all *)
  let load (t : lock Fc_front.handle) off =
    Engine.load_off t.e (current_delta ()) off

  let load_bytes (t : lock Fc_front.handle) off len =
    Engine.load_bytes_off t.e (current_delta ()) off len

  let compare_bytes (t : lock Fc_front.handle) off len s =
    Engine.compare_bytes_off t.e (current_delta ()) off len s

  let get_root (t : lock Fc_front.handle) i =
    Engine.get_root_off t.e (current_delta ()) i

  let reset (t : lock Fc_front.handle) = Left_right.set_lr t.lock inst_back
end

include Fc_front.Make (Left_right_sync)
