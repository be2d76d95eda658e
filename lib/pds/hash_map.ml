(* Persistent hash map with chaining, over one codec for its keys and
   values (see codec.mli).  The word instance ([Make]) is the map of the
   paper's §6.2 evaluation; the blob instance is RomulusDB's (§6.4).

   Two flavours behind one implementation, as in the paper's evaluation:
   - resizable (§6.2): a shared element counter drives resizing — the
     counter is exactly the contention point that makes fine-grained STMs
     abort (Figure 5's discussion);
   - fixed-size (2,048 buckets, no counter updates on the hot path),
     the statically-dimensioned variant built to reproduce Mnemosyne's
     original scalability results (Figure 5).

   Layout:

     map object:  [0] buckets (ptr to array)  [8] nbuckets  [16] count
     node:        [0] next  [8] key slot  [16] value slot *)

module Of_codec (Cc : Codec.S) (P : Romulus.Ptm_intf.S) = struct
  module C = Cc.Make (P)

  type t = {
    p : P.t;
    map : int;
    resizable : bool;
  }

  let o_buckets = 0
  let o_nbuckets = 8
  let o_count = 16
  let map_bytes = 24

  let n_next = 0
  let n_key = 8
  let n_value = 16
  let node_bytes = 24

  let buckets t = P.load t.p (t.map + o_buckets)
  let nbuckets t = P.load t.p (t.map + o_nbuckets)
  let count t = P.load t.p (t.map + o_count)

  let bucket_of_hash ~buckets ~nbuckets h = buckets + (8 * (h mod nbuckets))

  let bucket_addr ~buckets ~nbuckets k =
    bucket_of_hash ~buckets ~nbuckets (C.hash k)

  let create ?(resizable = true) ?(initial_buckets = 16) p ~root =
    P.update_tx p (fun () ->
        let buckets = P.alloc p (8 * initial_buckets) in
        for i = 0 to initial_buckets - 1 do
          P.store p (buckets + (8 * i)) 0
        done;
        let map = P.alloc p map_bytes in
        P.store p (map + o_buckets) buckets;
        P.store p (map + o_nbuckets) initial_buckets;
        P.store p (map + o_count) 0;
        P.set_root p root map;
        { p; map; resizable })

  let attach ?(resizable = true) p ~root =
    match P.read_tx p (fun () -> P.get_root p root) with
    | 0 -> invalid_arg "Hash_map.attach: empty root"
    | map -> { p; map; resizable }

  let open_or_create ?initial_buckets p ~root =
    match P.read_tx p (fun () -> P.get_root p root) with
    | 0 -> create ?initial_buckets p ~root
    | _ -> attach p ~root

  (* The bucket walks are top-level recursions, so a walk allocates
     neither a closure nor a tuple. *)

  (* the node holding [k] in the chain that starts at [node], or 0 *)
  let rec find_node t node k =
    if node = 0 || C.equal_at t.p (node + n_key) k then node
    else find_node t (P.load t.p (node + n_next)) k

  (* Unlink and release the node holding [k] in the chain from [node],
     the pointer stored at [pred]; whether one was found.  It unlinks
     where it finds the node, so no pointer is loaded twice. *)
  let rec unlink t pred node k =
    if node = 0 then false
    else if C.equal_at t.p (node + n_key) k then begin
      P.store t.p pred (P.load t.p (node + n_next));
      C.free t.p (node + n_key);
      C.free t.p (node + n_value);
      P.free t.p node;
      true
    end
    else unlink t (node + n_next) (P.load t.p (node + n_next)) k

  (* named, so [get_hashed]'s read_tx closure captures only [t], [hash],
     [k] and it, not every functor-level value the body names *)
  let lookup t hash k =
    let slot =
      bucket_of_hash ~buckets:(buckets t) ~nbuckets:(nbuckets t) hash
    in
    let node = find_node t (P.load t.p slot) k in
    if node = 0 then None else Some (C.load t.p (node + n_value))

  (* [hash] is [C.hash k], computed by a caller that needed it anyway *)
  let get_hashed t ~hash k = P.read_tx t.p (fun () -> lookup t hash k)

  let get t k = get_hashed t ~hash:(C.hash k) k

  let mem t k = get t k <> None

  (* double the bucket array and rehash (one big transaction) *)
  let resize t =
    let old_buckets = buckets t in
    let old_n = nbuckets t in
    let new_n = 2 * old_n in
    let new_buckets = P.alloc t.p (8 * new_n) in
    for i = 0 to new_n - 1 do
      P.store t.p (new_buckets + (8 * i)) 0
    done;
    for i = 0 to old_n - 1 do
      let rec move node =
        if node <> 0 then begin
          let succ = P.load t.p (node + n_next) in
          let k = C.load t.p (node + n_key) in
          let slot = bucket_addr ~buckets:new_buckets ~nbuckets:new_n k in
          P.store t.p (node + n_next) (P.load t.p slot);
          P.store t.p slot node;
          move succ
        end
      in
      move (P.load t.p (old_buckets + (8 * i)))
    done;
    P.store t.p (t.map + o_buckets) new_buckets;
    P.store t.p (t.map + o_nbuckets) new_n;
    P.free t.p old_buckets

  (* insert or overwrite; returns true when the key was new *)
  let put t k v =
    P.update_tx t.p (fun () ->
        let slot = bucket_addr ~buckets:(buckets t) ~nbuckets:(nbuckets t) k in
        let node = find_node t (P.load t.p slot) k in
        if node <> 0 then begin
          C.overwrite t.p (node + n_value) v;
          false
        end
        else begin
          let n = P.alloc t.p node_bytes in
          C.store t.p (n + n_key) k;
          C.store t.p (n + n_value) v;
          P.store t.p (n + n_next) (P.load t.p slot);
          P.store t.p slot n;
          if t.resizable then begin
            let c = count t + 1 in
            P.store t.p (t.map + o_count) c;
            if c > 2 * nbuckets t then resize t
          end;
          true
        end)

  let remove t k =
    P.update_tx t.p (fun () ->
        let slot = bucket_addr ~buckets:(buckets t) ~nbuckets:(nbuckets t) k in
        if not (unlink t slot (P.load t.p slot) k) then false
        else begin
          if t.resizable then
            P.store t.p (t.map + o_count) (count t - 1);
          true
        end)

  (* fold in bucket order; [reverse] walks the buckets backwards (the
     traversal order is irrelevant for a hash map, which is the point the
     paper makes about readseq vs readreverse on RomulusDB) *)
  let fold ?(reverse = false) t f init =
    P.read_tx t.p (fun () ->
        let buckets = buckets t and n = nbuckets t in
        let acc = ref init in
        let visit i =
          let rec walk node =
            if node <> 0 then begin
              acc :=
                f !acc (C.load t.p (node + n_key)) (C.load t.p (node + n_value));
              walk (P.load t.p (node + n_next))
            end
          in
          walk (P.load t.p (buckets + (8 * i)))
        in
        if reverse then
          for i = n - 1 downto 0 do visit i done
        else
          for i = 0 to n - 1 do visit i done;
        !acc)

  let iter ?reverse t f = fold ?reverse t (fun () k v -> f k v) ()

  let length t =
    if t.resizable then P.read_tx t.p (fun () -> count t)
    else fold t (fun acc _ _ -> acc + 1) 0

  (* structural check: every node hashes to the bucket that holds it, no
     duplicate keys, counter consistent when maintained *)
  let check t =
    P.read_tx t.p (fun () ->
        let buckets = buckets t and n = nbuckets t in
        let seen = Hashtbl.create 64 in
        let errors = ref [] in
        for i = 0 to n - 1 do
          let rec walk node =
            if node <> 0 then begin
              let k = C.load t.p (node + n_key) in
              if C.hash k mod n <> i then
                errors :=
                  Printf.sprintf "key %s in wrong bucket %d" (C.pp k) i
                  :: !errors;
              if Hashtbl.mem seen k then
                errors := Printf.sprintf "duplicate key %s" (C.pp k) :: !errors;
              Hashtbl.replace seen k ();
              walk (P.load t.p (node + n_next))
            end
          in
          walk (P.load t.p (buckets + (8 * i)))
        done;
        if t.resizable && count t <> Hashtbl.length seen then
          errors :=
            Printf.sprintf "count %d but %d nodes" (count t)
              (Hashtbl.length seen)
            :: !errors;
        match !errors with
        | [] -> Ok ()
        | es -> Error (String.concat "; " es))
end

module Make (P : Romulus.Ptm_intf.S) = Of_codec (Codec.Word) (P)
