(* Persistent B+tree with string keys and string values — the ordered
   index behind {!Sorted_db}.  Same structure as {!Pds.Bptree} (fanout 8,
   values in chained leaves, proactive splits, lazy deletion), with keys
   and values stored as length-prefixed blobs.

   Blob ownership: a leaf owns its key and value blobs (freed when the
   entry is removed or the value overwritten).  Internal separators own
   *copies* of the keys they were split on, so leaf deletions can never
   dangle a separator.  Lazy deletion never removes separators except
   when an empty root collapses, which frees the node but leaks its
   separator copies — bounded by tree height and acceptable for a store
   whose deletes are rare relative to its inserts (the same trade
   LevelDB's tombstones make). *)

module Make (P : Romulus.Ptm_intf.S) = struct
  type t = { p : P.t; obj : int }

  let fanout = 8

  let o_root = 0
  let o_height = 8
  let o_count = 16
  let obj_bytes = 24

  let n_nkeys = 0
  let l_next = 8
  let l_keys = 16
  let l_vals = l_keys + (8 * fanout)
  let leaf_bytes = l_vals + (8 * fanout)

  let i_keys = 8
  let i_children = i_keys + (8 * (fanout - 1))
  let internal_bytes = i_children + (8 * fanout)

  (* ---- blobs ---- *)

  let alloc_blob t s =
    let b = P.alloc t.p (8 + String.length s) in
    P.store t.p b (String.length s);
    if String.length s > 0 then P.store_bytes t.p (b + 8) s;
    b

  let blob_str t b =
    let len = P.load t.p b in
    if len = 0 then "" else P.load_bytes t.p (b + 8) len

  let free_blob t b = P.free t.p b

  (* ---- node accessors ---- *)

  let nkeys t n = P.load t.p (n + n_nkeys)
  let set_nkeys t n v = P.store t.p (n + n_nkeys) v
  let lkey t n i = P.load t.p (n + l_keys + (8 * i))
  let set_lkey t n i v = P.store t.p (n + l_keys + (8 * i)) v
  let lval t n i = P.load t.p (n + l_vals + (8 * i))
  let set_lval t n i v = P.store t.p (n + l_vals + (8 * i)) v
  let lnext t n = P.load t.p (n + l_next)
  let set_lnext t n v = P.store t.p (n + l_next) v
  let ikey t n i = P.load t.p (n + i_keys + (8 * i))
  let set_ikey t n i v = P.store t.p (n + i_keys + (8 * i)) v
  let child t n i = P.load t.p (n + i_children + (8 * i))
  let set_child t n i v = P.store t.p (n + i_children + (8 * i)) v

  let root t = P.load t.p (t.obj + o_root)
  let height t = P.load t.p (t.obj + o_height)

  let new_leaf t =
    let n = P.alloc t.p leaf_bytes in
    set_nkeys t n 0;
    set_lnext t n 0;
    n

  let new_internal t =
    let n = P.alloc t.p internal_bytes in
    set_nkeys t n 0;
    n

  let create p ~root =
    P.update_tx p (fun () ->
        let obj = P.alloc p obj_bytes in
        let t = { p; obj } in
        let leaf = new_leaf t in
        P.store p (obj + o_root) leaf;
        P.store p (obj + o_height) 0;
        P.store p (obj + o_count) 0;
        P.set_root p root obj;
        t)

  let attach p ~root =
    match P.read_tx p (fun () -> P.get_root p root) with
    | 0 -> invalid_arg "Str_bptree.attach: empty root"
    | obj -> { p; obj }

  let open_or_create p ~root =
    match P.read_tx p (fun () -> P.get_root p root) with
    | 0 -> create p ~root
    | _ -> attach p ~root

  let length t = P.read_tx t.p (fun () -> P.load t.p (t.obj + o_count))

  (* ---- search ---- *)

  let child_index t n k =
    let nk = nkeys t n in
    let rec scan i =
      if i < nk && String.compare k (blob_str t (ikey t n i)) >= 0 then
        scan (i + 1)
      else i
    in
    scan 0

  let leaf_position t n k =
    let nk = nkeys t n in
    let rec scan i =
      if i >= nk then `Insert_at i
      else
        let c = String.compare (blob_str t (lkey t n i)) k in
        if c = 0 then `Found i
        else if c > 0 then `Insert_at i
        else scan (i + 1)
    in
    scan 0

  let rec descend_to_leaf t n level k =
    if level = 0 then n
    else descend_to_leaf t (child t n (child_index t n k)) (level - 1) k

  let get t k =
    P.read_tx t.p (fun () ->
        let leaf = descend_to_leaf t (root t) (height t) k in
        match leaf_position t leaf k with
        | `Found i -> Some (blob_str t (lval t leaf i))
        | `Insert_at _ -> None)

  let mem t k = get t k <> None

  (* ---- splits ---- *)

  let split_leaf t leaf =
    let half = fanout / 2 in
    let right = new_leaf t in
    for j = 0 to fanout - half - 1 do
      set_lkey t right j (lkey t leaf (half + j));
      set_lval t right j (lval t leaf (half + j))
    done;
    set_nkeys t right (fanout - half);
    set_nkeys t leaf half;
    set_lnext t right (lnext t leaf);
    set_lnext t leaf right;
    (* the separator gets its own copy of the key *)
    (alloc_blob t (blob_str t (lkey t right 0)), right)

  let split_internal t node =
    let total = fanout - 1 in
    let mid = total / 2 in
    let right = new_internal t in
    let moved = total - mid - 1 in
    for j = 0 to moved - 1 do
      set_ikey t right j (ikey t node (mid + 1 + j))
    done;
    for j = 0 to moved do
      set_child t right j (child t node (mid + 1 + j))
    done;
    set_nkeys t right moved;
    let sep = ikey t node mid in
    set_nkeys t node mid;
    (sep, right)

  let insert_into_internal t n i sep right =
    let nk = nkeys t n in
    for j = nk - 1 downto i do
      set_ikey t n (j + 1) (ikey t n j)
    done;
    for j = nk downto i + 1 do
      set_child t n (j + 1) (child t n j)
    done;
    set_ikey t n i sep;
    set_child t n (i + 1) right;
    set_nkeys t n (nk + 1)

  let node_full t n ~leaf = nkeys t n >= if leaf then fanout else fanout - 1

  let grow_root t sep left right =
    let nr = new_internal t in
    set_ikey t nr 0 sep;
    set_child t nr 0 left;
    set_child t nr 1 right;
    set_nkeys t nr 1;
    P.store t.p (t.obj + o_root) nr;
    P.store t.p (t.obj + o_height) (height t + 1)

  (* insert or overwrite; true when the key was new *)
  let put t k v =
    P.update_tx t.p (fun () ->
        (if height t = 0 then begin
           if node_full t (root t) ~leaf:true then begin
             let sep, right = split_leaf t (root t) in
             grow_root t sep (root t) right
           end
         end
         else if node_full t (root t) ~leaf:false then begin
           let sep, right = split_internal t (root t) in
           grow_root t sep (root t) right
         end);
        let rec walk n level =
          if level = 0 then begin
            match leaf_position t n k with
            | `Found i ->
              (* a value of the old blob's length is rewritten in place:
                 the allocator stays off the same-length overwrite path *)
              let b = lval t n i in
              if P.load t.p b = String.length v then begin
                if v <> "" then P.store_bytes t.p (b + 8) v
              end
              else begin
                free_blob t b;
                set_lval t n i (alloc_blob t v)
              end;
              false
            | `Insert_at i ->
              let nk = nkeys t n in
              for j = nk - 1 downto i do
                set_lkey t n (j + 1) (lkey t n j);
                set_lval t n (j + 1) (lval t n j)
              done;
              set_lkey t n i (alloc_blob t k);
              set_lval t n i (alloc_blob t v);
              set_nkeys t n (nk + 1);
              P.store t.p (t.obj + o_count)
                (P.load t.p (t.obj + o_count) + 1);
              true
          end
          else begin
            let ci = child_index t n k in
            let c = child t n ci in
            if node_full t c ~leaf:(level = 1) then begin
              let sep, right =
                if level = 1 then split_leaf t c else split_internal t c
              in
              insert_into_internal t n ci sep right;
              let ci = child_index t n k in
              walk (child t n ci) (level - 1)
            end
            else walk c (level - 1)
          end
        in
        walk (root t) (height t))

  (* ---- deletion (lazy) ---- *)

  let remove t k =
    P.update_tx t.p (fun () ->
        let rec walk n level =
          if level = 0 then begin
            match leaf_position t n k with
            | `Insert_at _ -> false
            | `Found i ->
              free_blob t (lkey t n i);
              free_blob t (lval t n i);
              let nk = nkeys t n in
              for j = i to nk - 2 do
                set_lkey t n j (lkey t n (j + 1));
                set_lval t n j (lval t n (j + 1))
              done;
              set_nkeys t n (nk - 1);
              P.store t.p (t.obj + o_count)
                (P.load t.p (t.obj + o_count) - 1);
              true
          end
          else walk (child t n (child_index t n k)) (level - 1)
        in
        let removed = walk (root t) (height t) in
        let rec shrink () =
          if height t > 0 && nkeys t (root t) = 0 then begin
            let old = root t in
            P.store t.p (t.obj + o_root) (child t old 0);
            P.store t.p (t.obj + o_height) (height t - 1);
            P.free t.p old;
            shrink ()
          end
        in
        shrink ();
        removed)

  (* ---- scans ---- *)

  let leftmost_leaf t =
    let rec walk n level =
      if level = 0 then n else walk (child t n 0) (level - 1)
    in
    walk (root t) (height t)

  let fold t f init =
    P.read_tx t.p (fun () ->
        let rec leaves n acc =
          if n = 0 then acc
          else begin
            let nk = nkeys t n in
            let acc = ref acc in
            for i = 0 to nk - 1 do
              acc := f !acc (blob_str t (lkey t n i)) (blob_str t (lval t n i))
            done;
            leaves (lnext t n) !acc
          end
        in
        leaves (leftmost_leaf t) init)

  let iter t f = fold t (fun () k v -> f k v) ()

  let to_list t = List.rev (fold t (fun acc k v -> (k, v) :: acc) [])

  (* ascending fold over lo <= key <= hi *)
  let fold_range t ~lo ~hi f init =
    P.read_tx t.p (fun () ->
        let start = descend_to_leaf t (root t) (height t) lo in
        let rec leaves n acc =
          if n = 0 then acc
          else begin
            let nk = nkeys t n in
            let acc = ref acc in
            let beyond = ref false in
            for i = 0 to nk - 1 do
              let k = blob_str t (lkey t n i) in
              if String.compare k hi > 0 then beyond := true
              else if String.compare k lo >= 0 then
                acc := f !acc k (blob_str t (lval t n i))
            done;
            if !beyond then !acc else leaves (lnext t n) !acc
          end
        in
        leaves start init)

  (* ---- structural check ---- *)

  let check t =
    P.read_tx t.p (fun () ->
        let errors = ref [] in
        let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
        let count = ref 0 in
        let leaves_seen = ref [] in
        let in_range k lo hi =
          (match lo with None -> true | Some l -> String.compare k l >= 0)
          && match hi with None -> true | Some h -> String.compare k h < 0
        in
        let rec walk n level lo hi =
          if level = 0 then begin
            leaves_seen := n :: !leaves_seen;
            let nk = nkeys t n in
            if nk < 0 || nk > fanout then err "leaf %d bad nkeys %d" n nk;
            count := !count + nk;
            for i = 0 to nk - 1 do
              let k = blob_str t (lkey t n i) in
              if not (in_range k lo hi) then
                err "leaf key %S outside separator range" k;
              if i > 0 && String.compare (blob_str t (lkey t n (i - 1))) k >= 0
              then err "leaf %d keys not ascending" n
            done
          end
          else begin
            let nk = nkeys t n in
            if nk < 1 || nk > fanout - 1 then
              err "internal %d bad nkeys %d" n nk;
            for i = 0 to nk do
              let clo = if i = 0 then lo else Some (blob_str t (ikey t n (i - 1))) in
              let chi = if i = nk then hi else Some (blob_str t (ikey t n i)) in
              walk (child t n i) (level - 1) clo chi
            done
          end
        in
        walk (root t) (height t) None None;
        let chain = ref [] in
        let rec follow n guard =
          if n <> 0 then
            if guard > 1_000_000 then err "leaf chain cycle"
            else begin
              chain := n :: !chain;
              follow (lnext t n) (guard + 1)
            end
        in
        follow (leftmost_leaf t) 0;
        if List.sort compare !chain <> List.sort compare !leaves_seen then
          err "leaf chain does not match tree leaves";
        if !count <> P.load t.p (t.obj + o_count) then
          err "count %d but %d keys" (P.load t.p (t.obj + o_count)) !count;
        let sorted = List.map fst (to_list t) in
        if List.sort compare sorted <> sorted then err "scan not sorted";
        match !errors with
        | [] -> Ok ()
        | es -> Error (String.concat "; " es))
end
