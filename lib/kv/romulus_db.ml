(* RomulusDB (§6.4): a persistent key-value store with the LevelDB
   interface, built by wrapping a persistent hash map in a PTM: the
   blob-keyed, blob-valued instance of {!Pds.Hash_map}.  Unlike
   LevelDB, every write is a durable transaction (there is no
   WriteOptions.sync to forget), and write batches are real transactions
   with all-or-nothing semantics.

   The functor runs on any PTM; the paper's RomulusDB uses RomulusLog,
   which is what {!Default} instantiates. *)

(* A non-positive bucket count would silently corrupt the map layout
   (zero-length bucket array, modulo by zero on the first lookup); reject
   it with a typed error before anything touches the region. *)
exception Invalid_buckets of int

module Make (P : Romulus.Ptm_intf.S) = struct
  module Map_ = Pds.Hash_map.Of_codec (Pds.Codec.Blob) (P)

  type t = { p : P.t; map : Map_.t }

  let db_root = 0

  (* Open (or create) the database stored in [region]. *)
  let open_db ?(initial_buckets = 1024) region =
    if initial_buckets <= 0 then raise (Invalid_buckets initial_buckets);
    let p = P.open_region region in
    let map = Map_.open_or_create ~initial_buckets p ~root:db_root in
    { p; map }

  (* Every operation is individually durable (the paper's comparison
     point against LevelDB's buffered durability). *)
  let put t k v = ignore (Map_.put t.map k v)

  let get t k = Map_.get t.map k

  let delete t k = Map_.remove t.map k

  let count t = Map_.length t.map

  (* LevelDB's write-batch, upgraded to a real transaction: all or
     nothing, one set of persistence fences for the whole batch. *)
  let write_batch t f = P.update_tx t.p (fun () -> f t)

  (* Full scans (readseq / readreverse).  RomulusDB is hash-ordered, so
     forward and reverse traversals cost the same (§6.4). *)
  let iter t f = Map_.iter t.map f

  let iter_reverse t f = Map_.iter ~reverse:true t.map f

  let check t = Map_.check t.map
end

(* The paper's RomulusDB: RomulusLog underneath. *)
module Default = Make (Romulus.Logged)
