(* Per-Domain transaction nesting of one PTM module: whether this Domain
   runs update-transaction code, and whether it is inside a read-only
   transaction.  A transaction begun inside either flattens into it.
   Each PTM module creates its own [t], so a transaction of one PTM never
   flattens into another's. *)

type t = { in_update : bool Domain.DLS.key; read_depth : int Domain.DLS.key }

let create () =
  { in_update = Domain.DLS.new_key (fun () -> false);
    read_depth = Domain.DLS.new_key (fun () -> 0) }

let in_update n = Domain.DLS.get n.in_update

(* a new transaction of either kind flattens into the enclosing one *)
let nested n = in_update n || Domain.DLS.get n.read_depth > 0

let enter_update n = Domain.DLS.set n.in_update true
let leave_update n = Domain.DLS.set n.in_update false

(* read-only nesting is flattened, so the depth is only ever 0 or 1 *)
let enter_read n = Domain.DLS.set n.read_depth 1
let leave_read n = Domain.DLS.set n.read_depth 0

(* A domain inside a read-only transaction must never store, even when a
   writer elsewhere has a transaction open (the PTM's own in-transaction
   check cannot tell the two domains apart).  A read-only transaction
   nested in an update is part of the update and may store. *)
let check_not_read_only n =
  if Domain.DLS.get n.read_depth > 0 && not (in_update n) then
    raise Engine.Store_outside_transaction
