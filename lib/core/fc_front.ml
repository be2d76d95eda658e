(* The flat-combining front of Rom, RomL and RomLR (§5.2, §5.3): the
   combiner runs a whole batch of update requests inside ONE durable
   engine transaction, so the persistence fences are amortized over the
   batch ("the average number of persistent fences per mutation can be
   smaller than 4"), and marks them done only after it committed, which
   preserves durable linearizability for helped operations.  How readers
   and the combiner stay apart is the sync module's. *)

open Sync_prims

type 'lock handle = { e : Engine.t; fc : Flat_combining.t; lock : 'lock }

module type CONFIG = sig
  val mode : Engine.mode
  val name : string
end

module type SYNC = sig
  include CONFIG

  type lock

  val create_lock : unit -> lock
  val arrive : lock handle -> int
  val depart : lock handle -> int -> unit
  val exec : lock handle -> (unit -> unit) -> unit
  val load : lock handle -> int -> int
  val load_bytes : lock handle -> int -> int -> string
  val compare_bytes : lock handle -> int -> int -> string -> int
  val get_root : lock handle -> int -> int
  val reset : lock handle -> unit
end

module Crwwp_sync (Config : CONFIG) = struct
  include Config

  type lock = Crwwp.t

  let create_lock = Crwwp.create

  (* Per-variant failpoint: the combiner ran the whole batch but the
     engine transaction has not yet started committing — a crash here
     must lose every helped operation at once, and an injected exception
     must abort the whole batch cleanly. *)
  let fp_batch_ran = Fault.site ~can_raise:true (Config.name ^ ".combiner.batch_ran")

  (* the token is the reader's thread slot *)
  let arrive t =
    let tid = Tid.current () in
    Crwwp.read_lock t.lock tid;
    tid

  let depart t tid = Crwwp.read_unlock t.lock tid

  (* The lock is released through [match … with exception], not a
     closure, so a commit allocates nothing for it. *)
  let exec t run_batch =
    Crwwp.write_lock t.lock;
    match
      (* a raising request (or injected fault, even one inside begin_tx
         itself) aborts the whole attempt — partial effects of the batch
         must not commit; the combiner answers the raiser with the
         Tx_aborted and retries the survivors in a fresh exec round *)
      try
        Engine.begin_tx t.e;
        run_batch ();
        Fault.hit fp_batch_ran;
        Engine.end_tx t.e
      with e -> Engine.abort_main t.e e
    with
    | () -> Crwwp.write_unlock t.lock
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Crwwp.write_unlock t.lock;
      Printexc.raise_with_backtrace e bt

  let load t off = Engine.load t.e off
  let load_bytes t off len = Engine.load_bytes t.e off len
  let compare_bytes t off len s = Engine.compare_bytes t.e off len s
  let get_root t i = Engine.get_root t.e i
  let reset _ = ()
end

module Make (S : SYNC) = struct
  type t = S.lock handle

  let name = S.name

  (* this PTM module's own nesting state, one record per Domain *)
  let nest = Nesting.create ()

  let open_salvage r =
    let e, lost = Engine.open_salvage ~mode:S.mode r in
    ({ e; fc = Flat_combining.create (); lock = S.create_lock () }, lost)

  let open_region r = fst (open_salvage r)

  let region t = Engine.region t.e

  let leave_read t (s : Nesting.state) token =
    s.read_depth <- 0;
    S.depart t token

  (* Inside an update (combiner executing user code) everything runs
     directly; a nested read_tx arrives on the reader side only once.
     The Domain's nesting record is fetched once for the transaction. *)
  let read_tx t f =
    let s = Nesting.get nest in
    if Nesting.nested s then f ()
    else begin
      let token = S.arrive t in
      s.read_depth <- 1;
      match f () with
      | v ->
        leave_read t s token;
        v
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        leave_read t s token;
        Printexc.raise_with_backtrace e bt
    end

  (* An update inside this Domain's read_tx would wait, as combiner, for
     its own reader arrival to drain: refuse it before publishing. *)
  let update_tx t f =
    let s = Nesting.get nest in
    if s.in_update then f ()
    else begin
      Nesting.check_not_read_only s;
      let result = ref None in
      let request () =
        (* runs on the combiner's Domain, which may not be the caller's:
           it marks the combiner's own record, fetched here *)
        let c = Nesting.get nest in
        c.in_update <- true;
        match f () with
        | v ->
          c.in_update <- false;
          result := Some v
        | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          c.in_update <- false;
          Printexc.raise_with_backtrace e bt
      in
      Flat_combining.apply t.fc request ~exec:(S.exec t);
      match !result with
      | Some v -> v
      | None ->
        (* own request raised: Flat_combining.apply re-raised it, so this
           is unreachable *)
        assert false
    end

  let load = S.load
  let load_bytes = S.load_bytes
  let compare_bytes = S.compare_bytes
  let get_root = S.get_root

  let store t off v =
    Nesting.check_not_read_only (Nesting.get nest);
    Engine.store t.e off v

  let store_bytes t off s =
    Nesting.check_not_read_only (Nesting.get nest);
    Engine.store_bytes t.e off s

  let alloc t n =
    Nesting.check_not_read_only (Nesting.get nest);
    Engine.alloc t.e n

  let free t p =
    Nesting.check_not_read_only (Nesting.get nest);
    Engine.free t.e p

  let set_root t i v =
    Nesting.check_not_read_only (Nesting.get nest);
    Engine.set_root t.e i v

  (* test hooks *)
  let engine t = t.e

  let recover t =
    Engine.recover t.e;
    S.reset t

  let recover_salvage t =
    let lost = Engine.recover_salvage t.e in
    S.reset t;
    lost

  let scrub t = Engine.scrub t.e
  let scrub_salvage t = Engine.scrub_salvage t.e
  let media_spans t = Engine.media_spans t.e
  let heap_end t = Engine.heap_end t.e
  let allocator_check t = Engine.allocator_check t.e
end
