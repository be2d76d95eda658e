(* The single-threaded API of §5.1: durable transactions with no
   synchronization at all — no flat combining, no reader-writer lock, no
   read indicators.  "Support for concurrency in such settings can be as
   simple as using mutual exclusion locks"; here the application promises
   there is exactly one thread, and in exchange pays zero synchronization
   overhead (the paper's argument against an STM that taxes even
   single-threaded applications).

   NOT thread-safe: concurrent use is a bug in the caller. *)

type t = { e : Engine.t; mutable depth : int }

let name = "romSeq"

let open_region r =
  { e = Engine.create ~mode:Engine.Logged r; depth = 0 }

let region t = Engine.region t.e

let update_tx t f =
  if t.depth > 0 then f ()
  else begin
    t.depth <- 1;
    Fun.protect
      ~finally:(fun () -> t.depth <- 0)
      (fun () ->
        match
          Engine.begin_tx t.e;
          f ()
        with
        | v ->
          Engine.end_tx t.e;
          v
        | exception e ->
          (* roll back (even when begin_tx itself raised at an injected
             fault site): main restored from back, the exception
             re-raised wrapped in Engine.Tx_aborted (crashes raw) *)
          Engine.abort_main t.e e)
  end

(* single-threaded read transactions are plain code; stores inside them
   hit the engine's Store_outside_transaction check *)
let read_tx t f =
  ignore t;
  f ()

let load t off = Engine.load t.e off
let store t off v = Engine.store t.e off v
let load_bytes t off len = Engine.load_bytes t.e off len
let compare_bytes t off len s = Engine.compare_bytes t.e off len s
let store_bytes t off s = Engine.store_bytes t.e off s
let alloc t n = Engine.alloc t.e n
let free t p = Engine.free t.e p
let get_root t i = Engine.get_root t.e i
let set_root t i v = Engine.set_root t.e i v

(* test hooks *)
let engine t = t.e

let recover t =
  Engine.recover t.e;
  t.depth <- 0

let scrub t = Engine.scrub t.e
let media_spans t = Engine.media_spans t.e
let allocator_check t = Engine.allocator_check t.e
