(* Persistent hash map with string keys and string values — the backing
   structure of RomulusDB (§6.4).  Keys and values are stored as
   length-prefixed blobs.  An overwrite with a value of the old length
   rewrites the blob in place; any other length reallocates it.

   Layout:

     map object:  [0] buckets  [8] nbuckets  [16] count
     node:        [0] next  [8] key blob  [16] value blob
     blob:        [0] length  [8..] bytes *)

module Make (P : Romulus.Ptm_intf.S) = struct
  type t = { p : P.t; map : int }

  let o_buckets = 0
  let o_nbuckets = 8
  let o_count = 16
  let map_bytes = 24

  let n_next = 0
  let n_key = 8
  let n_value = 16
  let node_bytes = 24

  (* FNV-1a over the key bytes; deterministic across runs *)
  let hash_str s =
    let h = ref 0x4bf29ce484222325 (* FNV offset basis, truncated to 63 bits *) in
    String.iter
      (fun c ->
        h := (!h lxor Char.code c) * 0x100000001b3)
      s;
    !h land max_int

  let create ?(initial_buckets = 64) p ~root =
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
        { p; map })

  let attach p ~root =
    match P.read_tx p (fun () -> P.get_root p root) with
    | 0 -> invalid_arg "Str_hash_map.attach: empty root"
    | map -> { p; map }

  let open_or_create ?initial_buckets p ~root =
    match P.read_tx p (fun () -> P.get_root p root) with
    | 0 -> create ?initial_buckets p ~root
    | _ -> attach p ~root

  let buckets t = P.load t.p (t.map + o_buckets)
  let nbuckets t = P.load t.p (t.map + o_nbuckets)
  let count t = P.load t.p (t.map + o_count)

  (* ---- blobs ---- *)

  let alloc_blob t s =
    let b = P.alloc t.p (8 + String.length s) in
    P.store t.p b (String.length s);
    if String.length s > 0 then P.store_bytes t.p (b + 8) s;
    b

  let blob_string t b =
    let len = P.load t.p b in
    if len = 0 then "" else P.load_bytes t.p (b + 8) len

  let blob_equals t b s =
    P.load t.p b = String.length s && blob_string t b = s

  (* ---- buckets ---- *)

  let slot_for _t ~buckets ~nbuckets k = buckets + (8 * (hash_str k mod nbuckets))

  (* (pred_field_addr, node | 0) *)
  let find_in_bucket t slot k =
    let rec walk pred node =
      if node = 0 then (pred, 0)
      else if blob_equals t (P.load t.p (node + n_key)) k then (pred, node)
      else walk (node + n_next) (P.load t.p (node + n_next))
    in
    walk slot (P.load t.p slot)

  let get t k =
    P.read_tx t.p (fun () ->
        let slot = slot_for t ~buckets:(buckets t) ~nbuckets:(nbuckets t) k in
        let _, node = find_in_bucket t slot k in
        if node = 0 then None
        else Some (blob_string t (P.load t.p (node + n_value))))

  let mem t k = get t k <> None

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
          let k = blob_string t (P.load t.p (node + n_key)) in
          let slot = slot_for t ~buckets:new_buckets ~nbuckets:new_n k in
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
        let slot = slot_for t ~buckets:(buckets t) ~nbuckets:(nbuckets t) k in
        let _, node = find_in_bucket t slot k in
        if node <> 0 then begin
          let b = P.load t.p (node + n_value) in
          if P.load t.p b = String.length v then begin
            if v <> "" then P.store_bytes t.p (b + 8) v
          end
          else begin
            P.free t.p b;
            P.store t.p (node + n_value) (alloc_blob t v)
          end;
          false
        end
        else begin
          let n = P.alloc t.p node_bytes in
          P.store t.p (n + n_key) (alloc_blob t k);
          P.store t.p (n + n_value) (alloc_blob t v);
          P.store t.p (n + n_next) (P.load t.p slot);
          P.store t.p slot n;
          let c = count t + 1 in
          P.store t.p (t.map + o_count) c;
          if c > 2 * nbuckets t then resize t;
          true
        end)

  let remove t k =
    P.update_tx t.p (fun () ->
        let slot = slot_for t ~buckets:(buckets t) ~nbuckets:(nbuckets t) k in
        let pred, node = find_in_bucket t slot k in
        if node = 0 then false
        else begin
          P.store t.p pred (P.load t.p (node + n_next));
          P.free t.p (P.load t.p (node + n_key));
          P.free t.p (P.load t.p (node + n_value));
          P.free t.p node;
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
                f !acc
                  (blob_string t (P.load t.p (node + n_key)))
                  (blob_string t (P.load t.p (node + n_value)));
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

  let length t = P.read_tx t.p (fun () -> count t)

  let check t =
    P.read_tx t.p (fun () ->
        let n = nbuckets t in
        let seen = Hashtbl.create 64 in
        let errors = ref [] in
        let bks = buckets t in
        for i = 0 to n - 1 do
          let rec walk node =
            if node <> 0 then begin
              let k = blob_string t (P.load t.p (node + n_key)) in
              if hash_str k mod n <> i then
                errors := Printf.sprintf "key %S in wrong bucket" k :: !errors;
              if Hashtbl.mem seen k then
                errors := Printf.sprintf "duplicate key %S" k :: !errors;
              Hashtbl.replace seen k ();
              walk (P.load t.p (node + n_next))
            end
          in
          walk (P.load t.p (bks + (8 * i)))
        done;
        if count t <> Hashtbl.length seen then
          errors :=
            Printf.sprintf "count %d but %d nodes" (count t)
              (Hashtbl.length seen)
            :: !errors;
        match !errors with
        | [] -> Ok ()
        | es -> Error (String.concat "; " es))
end
