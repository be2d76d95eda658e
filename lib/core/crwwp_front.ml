(* Concurrency front-end shared by Romulus and RomulusLog (§5.2): update
   transactions are aggregated by flat combining and executed by a single
   combiner holding the C-RW-WP writer lock; read-only transactions take
   the scalable reader side and read main in place.

   The combiner runs a whole batch inside ONE durable engine transaction,
   so the persistence fences are amortized over the batch ("the average
   number of persistent fences per mutation can be smaller than 4").
   Requests are only marked done after the engine transaction committed,
   which preserves durable linearizability for helped operations. *)

open Sync_prims

module type CONFIG = sig
  val mode : Engine.mode
  val name : string
end

module Make (Config : CONFIG) = struct
  type t = {
    e : Engine.t;
    lock : Crwwp.t;
    fc : Flat_combining.t;
  }

  let name = Config.name

  (* Per-variant failpoint: the combiner ran the whole batch but the
     engine transaction has not yet started committing — a crash here
     must lose every helped operation at once, and an injected exception
     must abort the whole batch cleanly. *)
  let fp_batch_ran = Fault.site ~can_raise:true (Config.name ^ ".combiner.batch_ran")

  let open_salvage r =
    let e, lost = Engine.open_salvage ~mode:Config.mode r in
    ({ e; lock = Crwwp.create (); fc = Flat_combining.create () }, lost)

  let open_region r = fst (open_salvage r)

  let region t = Engine.region t.e

  (* Per-domain nesting state: inside an update (combiner executing user
     code) everything runs directly; read_tx nesting is counted so the
     reader lock is taken exactly once. *)
  let in_update_key : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)
  let read_depth_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

  let in_update () = Domain.DLS.get in_update_key
  let read_depth () = Domain.DLS.get read_depth_key

  let read_tx t f =
    if in_update () || read_depth () > 0 then f ()
    else begin
      let tid = Tid.current () in
      Domain.DLS.set read_depth_key 1;
      Fun.protect
        ~finally:(fun () -> Domain.DLS.set read_depth_key 0)
        (fun () -> Crwwp.with_read_lock t.lock tid f)
    end

  let update_tx t f =
    if in_update () then f ()
    else begin
      let result = ref None in
      let request () =
        (* runs on the combiner's domain *)
        Domain.DLS.set in_update_key true;
        Fun.protect
          ~finally:(fun () -> Domain.DLS.set in_update_key false)
          (fun () -> result := Some (f ()))
      in
      let exec run_batch =
        Crwwp.with_write_lock t.lock (fun () ->
            (* a raising request (or injected fault, even one inside
               begin_tx itself) aborts the whole attempt — partial
               effects of the batch must not commit; the combiner
               answers the raiser with the Tx_aborted and retries the
               survivors in a fresh exec round *)
            try
              Engine.begin_tx t.e;
              run_batch ();
              Fault.hit fp_batch_ran;
              Engine.end_tx t.e
            with e -> Engine.abort_main t.e e)
      in
      Flat_combining.apply t.fc request ~exec;
      match !result with
      | Some v -> v
      | None ->
        (* own request raised: Flat_combining.apply re-raised it, so this
           is unreachable *)
        assert false
    end

  (* A domain inside a read-only transaction must never store, even when
     a combiner elsewhere has an engine transaction open (the engine's
     own in-transaction check cannot tell the two domains apart). *)
  let check_not_read_only () =
    if read_depth () > 0 && not (in_update ()) then
      raise Engine.Store_outside_transaction

  let load t off = Engine.load t.e off

  let store t off v =
    check_not_read_only ();
    Engine.store t.e off v

  let load_bytes t off len = Engine.load_bytes t.e off len

  let store_bytes t off s =
    check_not_read_only ();
    Engine.store_bytes t.e off s

  let alloc t n =
    check_not_read_only ();
    Engine.alloc t.e n

  let free t p =
    check_not_read_only ();
    Engine.free t.e p

  let get_root t i = Engine.get_root t.e i

  let set_root t i v =
    check_not_read_only ();
    Engine.set_root t.e i v

  (* test hooks *)
  let engine t = t.e
  let recover t = Engine.recover t.e
  let recover_salvage t = Engine.recover_salvage t.e
  let scrub t = Engine.scrub t.e
  let scrub_salvage t = Engine.scrub_salvage t.e
  let media_spans t = Engine.media_spans t.e
  let heap_end t = Engine.heap_end t.e
  let allocator_check t = Engine.allocator_check t.e
end
