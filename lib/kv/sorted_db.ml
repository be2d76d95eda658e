(* Sorted RomulusDB: the LevelDB interface over a persistent red-black
   tree — the blob-keyed, blob-valued instance of {!Pds.Rb_tree} —
   instead of the paper's hash map.  Scans run in key order (and support
   ranges), matching LevelDB's iterator semantics that the hash-ordered
   RomulusDB of §6.4 deliberately traded away. *)

module Make (P : Romulus.Ptm_intf.S) = struct
  module T = Pds.Rb_tree.Of_codec (Pds.Codec.Blob) (P)

  type t = { p : P.t; tree : T.t }

  let db_root = 0

  let open_db region =
    let p = P.open_region region in
    let tree = T.open_or_create p ~root:db_root in
    { p; tree }

  let put t k v = ignore (T.put t.tree k v)
  let get t k = T.get t.tree k
  let delete t k = T.remove t.tree k
  let count t = T.length t.tree

  (* all-or-nothing batch, one set of persistence fences *)
  let write_batch t f = P.update_tx t.p (fun () -> f t)

  (* ascending-key scans, as LevelDB iterators produce them *)
  let iter t f = T.fold t.tree (fun () k v -> f k v) ()

  (* inclusive range scan *)
  let iter_range t ~lo ~hi f =
    T.fold_range t.tree ~lo ~hi (fun () k v -> f k v) ()

  let check t = T.check t.tree
end

(* the default instance matches RomulusDB's PTM *)
module Default = Make (Romulus.Logged)
