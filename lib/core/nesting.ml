(* Per-Domain transaction nesting of one PTM module: whether this Domain
   runs update-transaction code, and whether it is inside a read-only
   transaction.  A transaction begun inside either flattens into it.
   Each PTM module creates its own [t], so a transaction of one PTM never
   flattens into another's.

   [t] is ONE Domain-local key holding a mutable record per Domain: a
   front fetches its Domain's record once per transaction ([get]) and
   then reads and writes its fields, so a transaction pays one
   Domain-local lookup, not one per field access.  A record belongs to
   the Domain that fetched it: code that may run on another Domain (the
   flat-combining combiner running a helped request) fetches its own. *)

type state = { mutable in_update : bool; mutable read_depth : int }
type t = state Domain.DLS.key

let create () : t =
  Domain.DLS.new_key (fun () -> { in_update = false; read_depth = 0 })

(* the calling Domain's record *)
let get (n : t) = Domain.DLS.get n

(* a new transaction of either kind flattens into the enclosing one *)
let nested s = s.in_update || s.read_depth > 0

(* A domain inside a read-only transaction must never store, even when a
   writer elsewhere has a transaction open (the PTM's own in-transaction
   check cannot tell the two domains apart).  A read-only transaction
   nested in an update is part of the update and may store.  Read-only
   nesting is flattened, so the depth is only ever 0 or 1. *)
let check_not_read_only s =
  if s.read_depth > 0 && not s.in_update then
    raise Engine.Store_outside_transaction
