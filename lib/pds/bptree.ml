(* Persistent B+tree map over one codec for its keys and values (see
   codec.mli): fixed fanout, values only in leaves, leaves chained for
   range scans.  The word instance ([Make]) maps integers to words; the
   blob instance is the ordered index behind Kv.Sorted_db.

   Layout (fanout F = 8):

     tree object:  [0] root  [8] height (0 = root is a leaf)  [16] count
     leaf:         [0] nkeys  [8] next-leaf
                   [16..]            F key slots
                   [16+8F..]         F value slots
     internal:     [0] nkeys
                   [8..]             F-1 separators
                   [8+8(F-1)..]      F children

   A leaf owns its key and value slots.  A separator is the codec's copy
   of the key it was split on, owned by its internal node, so no leaf
   deletion can dangle it.

   Insertion splits full nodes on the way down (proactive splitting, so a
   split never propagates upward mid-transaction).  Deletion is lazy: it
   only removes leaf entries.  Nodes may underflow, and no internal node
   or separator is ever removed (an internal node keeps the keys it was
   split with) — the approach of many production stores; the structural
   check therefore validates ordering, height uniformity, separator
   correctness and the leaf chain, but not minimum occupancy. *)

module Of_codec (Cc : Codec.S) (P : Romulus.Ptm_intf.S) = struct
  module C = Cc.Make (P)

  type t = { p : P.t; obj : int }

  let fanout = 8

  let o_root = 0
  let o_height = 8
  let o_count = 16
  let obj_bytes = 24

  (* common header *)
  let n_nkeys = 0

  (* leaf fields *)
  let l_next = 8
  let l_keys = 16
  let l_vals = l_keys + (8 * fanout)
  let leaf_bytes = l_vals + (8 * fanout)

  (* internal fields *)
  let i_keys = 8
  let i_children = i_keys + (8 * (fanout - 1))
  let internal_bytes = i_children + (8 * fanout)

  (* slot addresses *)
  let lk n i = n + l_keys + (8 * i)
  let lv n i = n + l_vals + (8 * i)
  let ik n i = n + i_keys + (8 * i)

  let nkeys t n = P.load t.p (n + n_nkeys)
  let set_nkeys t n v = P.store t.p (n + n_nkeys) v

  (* raw slot words: shifting and splitting move them, codecs not involved *)
  let lkey t n i = P.load t.p (lk n i)
  let set_lkey t n i v = P.store t.p (lk n i) v
  let lval t n i = P.load t.p (lv n i)
  let set_lval t n i v = P.store t.p (lv n i) v
  let lnext t n = P.load t.p (n + l_next)
  let set_lnext t n v = P.store t.p (n + l_next) v

  let ikey t n i = P.load t.p (ik n i)
  let set_ikey t n i v = P.store t.p (ik n i) v
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
    | 0 -> invalid_arg "Bptree.attach: empty root"
    | obj -> { p; obj }

  let open_or_create p ~root =
    match P.read_tx p (fun () -> P.get_root p root) with
    | 0 -> create p ~root
    | _ -> attach p ~root

  let length t = P.read_tx t.p (fun () -> P.load t.p (t.obj + o_count))

  (* index of the child to follow for key [k] in internal node [n] *)
  let child_index t n k =
    let nk = nkeys t n in
    let rec scan i =
      if i < nk && C.compare_at t.p (ik n i) k <= 0 then scan (i + 1) else i
    in
    scan 0

  (* position of [k] in leaf [n]: [Found i] or [Insert_at i] *)
  let leaf_position t n k =
    let nk = nkeys t n in
    let rec scan i =
      if i >= nk then `Insert_at i
      else
        let c = C.compare_at t.p (lk n i) k in
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
        | `Found i -> Some (C.load t.p (lv leaf i))
        | `Insert_at _ -> None)

  let mem t k = get t k <> None

  (* ---- insertion with proactive splitting ---- *)

  (* split a full leaf; returns (separator, right) *)
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
    (C.separator t.p (lk right 0), right)

  let split_internal t node =
    (* full internal node has fanout-1 keys; middle key moves up *)
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

  (* insert (sep, right) into internal node [n] at position [i] *)
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
        (* split a full root first *)
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
        (* descend, splitting any full child before entering it *)
        let rec walk n level =
          if level = 0 then begin
            match leaf_position t n k with
            | `Found i ->
              C.overwrite t.p (lv n i) v;
              false
            | `Insert_at i ->
              let nk = nkeys t n in
              for j = nk - 1 downto i do
                set_lkey t n (j + 1) (lkey t n j);
                set_lval t n (j + 1) (lval t n j)
              done;
              C.store t.p (lk n i) k;
              C.store t.p (lv n i) v;
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
              (* re-pick the child: k may belong right of the separator *)
              let ci = child_index t n k in
              walk (child t n ci) (level - 1)
            end
            else walk c (level - 1)
          end
        in
        walk (root t) (height t))

  (* ---- deletion (lazy: leaf entries only, no rebalancing) ---- *)

  let remove t k =
    P.update_tx t.p (fun () ->
        let rec walk n level =
          if level = 0 then begin
            match leaf_position t n k with
            | `Insert_at _ -> false
            | `Found i ->
              C.free t.p (lk n i);
              C.free t.p (lv n i);
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
        walk (root t) (height t))

  (* ---- scans ---- *)

  let leftmost_leaf t =
    let rec walk n level = if level = 0 then n else walk (child t n 0) (level - 1) in
    walk (root t) (height t)

  let fold t f init =
    P.read_tx t.p (fun () ->
        let rec leaves n acc =
          if n = 0 then acc
          else begin
            let nk = nkeys t n in
            let acc = ref acc in
            for i = 0 to nk - 1 do
              acc := f !acc (C.load t.p (lk n i)) (C.load t.p (lv n i))
            done;
            leaves (lnext t n) !acc
          end
        in
        leaves (leftmost_leaf t) init)

  let iter t f = fold t (fun () k v -> f k v) ()

  let to_list t = List.rev (fold t (fun acc k v -> (k, v) :: acc) [])

  (* ascending fold over lo <= key <= hi using the leaf chain *)
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
              let k = C.load t.p (lk n i) in
              if C.compare k hi > 0 then beyond := true
              else if C.compare k lo >= 0 then
                acc := f !acc k (C.load t.p (lv n i))
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
        let leaves_seen = ref [] in
        let count = ref 0 in
        (* [lo, hi) bounds the subtree's keys; None is unbounded *)
        let in_range k lo hi =
          (match lo with None -> true | Some l -> C.compare k l >= 0)
          && match hi with None -> true | Some h -> C.compare k h < 0
        in
        let rec walk n level lo hi =
          if level = 0 then begin
            leaves_seen := n :: !leaves_seen;
            let nk = nkeys t n in
            if nk < 0 || nk > fanout then err "leaf %d bad nkeys %d" n nk;
            count := !count + nk;
            for i = 0 to nk - 1 do
              let k = C.load t.p (lk n i) in
              if not (in_range k lo hi) then
                err "leaf key %s outside separator range" (C.pp k);
              if i > 0 && C.compare (C.load t.p (lk n (i - 1))) k >= 0 then
                err "leaf %d keys not ascending" n
            done
          end
          else begin
            let nk = nkeys t n in
            (* separators are never removed: an internal node always
               keeps at least the key it was created with *)
            if nk < 1 || nk > fanout - 1 then
              err "internal %d bad nkeys %d" n nk;
            let sep i = C.load t.p (ik n i) in
            for i = 0 to nk - 1 do
              let k = sep i in
              if not (in_range k lo hi) then
                err "separator %s outside range" (C.pp k);
              if i > 0 && C.compare (sep (i - 1)) k >= 0 then
                err "internal %d separators not ascending" n
            done;
            for i = 0 to nk do
              let clo = if i = 0 then lo else Some (sep (i - 1)) in
              let chi = if i = nk then hi else Some (sep i) in
              walk (child t n i) (level - 1) clo chi
            done
          end
        in
        walk (root t) (height t) None None;
        (* leaf chain must visit exactly the tree's leaves, in order *)
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
        let keys = List.map fst (to_list t) in
        if List.sort C.compare keys <> keys then err "scan not sorted";
        match !errors with
        | [] -> Ok ()
        | es -> Error (String.concat "; " es))
end

module Make (P : Romulus.Ptm_intf.S) = Of_codec (Codec.Word) (P)
