(* Persistent red-black tree map (CLRS-style, with parent pointers and an
   allocated nil sentinel), over one codec for its keys and values (see
   codec.mli).  The word instance ([Make]) is the tree of the paper's
   evaluation, its "many stores per transaction" structure: an update
   transaction touches O(log n) nodes plus rotation and recolouring
   stores (the two pwb-histogram peaks of §6.2).  The blob instance is
   the sorted RomulusDB's (Kv.Sorted_db).

   Layout:

     tree object:  [0] root  [8] nil  [16] count
     node:         [0] key slot  [8] value slot  [16] left  [24] right
                   [32] parent  [40] color (0 = red, 1 = black)

   The key and value slots are touched only through the codec; the tree
   itself only relinks nodes.  The nil sentinel is a real allocated node
   (offset 0 cannot be written through the PTM): it is always black, its
   key and value slots are zero-filled words no codec reads, and
   delete-fixup may temporarily write its parent field, exactly as in
   CLRS. *)

module Of_codec (Cc : Codec.S) (P : Romulus.Ptm_intf.S) = struct
  module C = Cc.Make (P)

  type t = { p : P.t; tree : int }

  let o_root = 0
  let o_nil = 8
  let o_count = 16
  let tree_bytes = 24

  let n_key = 0
  let n_value = 8
  let n_left = 16
  let n_right = 24
  let n_parent = 32
  let n_color = 40
  let node_bytes = 48

  let red = 0
  let black = 1

  (* field accessors *)
  let root t = P.load t.p (t.tree + o_root)
  let nil t = P.load t.p (t.tree + o_nil)
  let set_root_node t n = P.store t.p (t.tree + o_root) n
  let key t n = C.load t.p (n + n_key)
  let value t n = C.load t.p (n + n_value)
  let left t n = P.load t.p (n + n_left)
  let right t n = P.load t.p (n + n_right)
  let parent t n = P.load t.p (n + n_parent)
  let color t n = P.load t.p (n + n_color)
  let set_left t n v = P.store t.p (n + n_left) v
  let set_right t n v = P.store t.p (n + n_right) v
  let set_parent t n v = P.store t.p (n + n_parent) v
  let set_color t n v = P.store t.p (n + n_color) v

  let create p ~root:root_slot =
    P.update_tx p (fun () ->
        let nil = P.alloc p node_bytes in
        P.store p (nil + n_key) 0;
        P.store p (nil + n_value) 0;
        P.store p (nil + n_left) nil;
        P.store p (nil + n_right) nil;
        P.store p (nil + n_parent) nil;
        P.store p (nil + n_color) black;
        let tree = P.alloc p tree_bytes in
        P.store p (tree + o_root) nil;
        P.store p (tree + o_nil) nil;
        P.store p (tree + o_count) 0;
        P.set_root p root_slot tree;
        { p; tree })

  let attach p ~root:root_slot =
    match P.read_tx p (fun () -> P.get_root p root_slot) with
    | 0 -> invalid_arg "Rb_tree.attach: empty root"
    | tree -> { p; tree }

  let open_or_create p ~root =
    match P.read_tx p (fun () -> P.get_root p root) with
    | 0 -> create p ~root
    | tree -> { p; tree }

  (* the node holding [k] in the subtree at [n], or [nil]: a top-level
     recursion, so a descent allocates no closure *)
  let rec descend t nil n k =
    if n = nil then nil
    else
      let c = C.compare_at t.p (n + n_key) k in
      if c = 0 then n
      else if c > 0 then descend t nil (left t n) k
      else descend t nil (right t n) k

  let find_node t k =
    let nil = nil t in
    descend t nil (root t) k

  (* named, so [get]'s read_tx closure captures only [t], [k] and it *)
  let lookup t k =
    let n = find_node t k in
    if n = nil t then None else Some (value t n)

  let get t k = P.read_tx t.p (fun () -> lookup t k)

  let mem t k = Option.is_some (get t k)

  let length t = P.read_tx t.p (fun () -> P.load t.p (t.tree + o_count))

  (* ---- rotations ---- *)

  let rotate_left t x =
    let nil = nil t in
    let y = right t x in
    set_right t x (left t y);
    if left t y <> nil then set_parent t (left t y) x;
    set_parent t y (parent t x);
    if parent t x = nil then set_root_node t y
    else if x = left t (parent t x) then set_left t (parent t x) y
    else set_right t (parent t x) y;
    set_left t y x;
    set_parent t x y

  let rotate_right t x =
    let nil = nil t in
    let y = left t x in
    set_left t x (right t y);
    if right t y <> nil then set_parent t (right t y) x;
    set_parent t y (parent t x);
    if parent t x = nil then set_root_node t y
    else if x = right t (parent t x) then set_right t (parent t x) y
    else set_left t (parent t x) y;
    set_right t y x;
    set_parent t x y

  (* ---- insert ---- *)

  let insert_fixup t z0 =
    let z = ref z0 in
    while color t (parent t !z) = red do
      let zp = parent t !z in
      let zpp = parent t zp in
      if zp = left t zpp then begin
        let y = right t zpp in
        if color t y = red then begin
          set_color t zp black;
          set_color t y black;
          set_color t zpp red;
          z := zpp
        end
        else begin
          if !z = right t zp then begin
            z := zp;
            rotate_left t !z
          end;
          let zp = parent t !z in
          let zpp = parent t zp in
          set_color t zp black;
          set_color t zpp red;
          rotate_right t zpp
        end
      end
      else begin
        let y = left t zpp in
        if color t y = red then begin
          set_color t zp black;
          set_color t y black;
          set_color t zpp red;
          z := zpp
        end
        else begin
          if !z = left t zp then begin
            z := zp;
            rotate_right t !z
          end;
          let zp = parent t !z in
          let zpp = parent t zp in
          set_color t zp black;
          set_color t zpp red;
          rotate_left t zpp
        end
      end
    done;
    set_color t (root t) black

  (* insert or overwrite; returns true when the key was new *)
  let put t k v =
    P.update_tx t.p (fun () ->
        let nil = nil t in
        let rec descend n p =
          if n = nil then `Attach p
          else
            let c = C.compare_at t.p (n + n_key) k in
            if c = 0 then `Found n
            else if c > 0 then descend (left t n) n
            else descend (right t n) n
        in
        match descend (root t) nil with
        | `Found n ->
          C.overwrite t.p (n + n_value) v;
          false
        | `Attach p ->
          let z = P.alloc t.p node_bytes in
          C.store t.p (z + n_key) k;
          C.store t.p (z + n_value) v;
          set_left t z nil;
          set_right t z nil;
          set_parent t z p;
          set_color t z red;
          if p = nil then set_root_node t z
          else if C.compare_at t.p (p + n_key) k > 0 then set_left t p z
          else set_right t p z;
          insert_fixup t z;
          P.store t.p (t.tree + o_count) (P.load t.p (t.tree + o_count) + 1);
          true)

  (* ---- delete ---- *)

  let transplant t u v =
    let nil = nil t in
    let up = parent t u in
    if up = nil then set_root_node t v
    else if u = left t up then set_left t up v
    else set_right t up v;
    set_parent t v up

  let minimum t n =
    let nil = nil t in
    let rec walk n = if left t n = nil then n else walk (left t n) in
    walk n

  let delete_fixup t x0 =
    let x = ref x0 in
    while !x <> root t && color t !x = black do
      let xp = parent t !x in
      if !x = left t xp then begin
        let w = ref (right t xp) in
        if color t !w = red then begin
          set_color t !w black;
          set_color t xp red;
          rotate_left t xp;
          w := right t (parent t !x)
        end;
        if color t (left t !w) = black && color t (right t !w) = black then begin
          set_color t !w red;
          x := parent t !x
        end
        else begin
          if color t (right t !w) = black then begin
            set_color t (left t !w) black;
            set_color t !w red;
            rotate_right t !w;
            w := right t (parent t !x)
          end;
          let xp = parent t !x in
          set_color t !w (color t xp);
          set_color t xp black;
          set_color t (right t !w) black;
          rotate_left t xp;
          x := root t
        end
      end
      else begin
        let w = ref (left t xp) in
        if color t !w = red then begin
          set_color t !w black;
          set_color t xp red;
          rotate_right t xp;
          w := left t (parent t !x)
        end;
        if color t (right t !w) = black && color t (left t !w) = black then begin
          set_color t !w red;
          x := parent t !x
        end
        else begin
          if color t (left t !w) = black then begin
            set_color t (right t !w) black;
            set_color t !w red;
            rotate_left t !w;
            w := left t (parent t !x)
          end;
          let xp = parent t !x in
          set_color t !w (color t xp);
          set_color t xp black;
          set_color t (left t !w) black;
          rotate_right t xp;
          x := root t
        end
      end
    done;
    set_color t !x black

  let remove t k =
    P.update_tx t.p (fun () ->
        let nil = nil t in
        let z = find_node t k in
        if z = nil then false
        else begin
          let y = ref z in
          let y_color = ref (color t z) in
          let x =
            if left t z = nil then begin
              let x = right t z in
              transplant t z x;
              x
            end
            else if right t z = nil then begin
              let x = left t z in
              transplant t z x;
              x
            end
            else begin
              y := minimum t (right t z);
              y_color := color t !y;
              let x = right t !y in
              if parent t !y = z then set_parent t x !y
              else begin
                transplant t !y (right t !y);
                set_right t !y (right t z);
                set_parent t (right t !y) !y
              end;
              transplant t z !y;
              set_left t !y (left t z);
              set_parent t (left t !y) !y;
              set_color t !y (color t z);
              x
            end
          in
          if !y_color = black then delete_fixup t x;
          C.free t.p (z + n_key);
          C.free t.p (z + n_value);
          P.free t.p z;
          P.store t.p (t.tree + o_count) (P.load t.p (t.tree + o_count) - 1);
          true
        end)

  (* ascending fold *)
  let fold t f init =
    P.read_tx t.p (fun () ->
        let nil = nil t in
        let rec walk n acc =
          if n = nil then acc
          else
            let acc = walk (left t n) acc in
            let acc = f acc (key t n) (value t n) in
            walk (right t n) acc
        in
        walk (root t) init)

  (* ascending fold over the bindings with lo <= key <= hi, visiting only
     the O(log n + answer) relevant subtrees *)
  let fold_range t ~lo ~hi f init =
    P.read_tx t.p (fun () ->
        let nil = nil t in
        let rec walk n acc =
          if n = nil then acc
          else begin
            let k = key t n in
            let vs_lo = C.compare k lo and vs_hi = C.compare k hi in
            let acc = if vs_lo > 0 then walk (left t n) acc else acc in
            let acc =
              if vs_lo >= 0 && vs_hi <= 0 then f acc k (value t n) else acc
            in
            if vs_hi < 0 then walk (right t n) acc else acc
          end
        in
        walk (root t) init)

  (* smallest binding with key >= k *)
  let find_first t k =
    P.read_tx t.p (fun () ->
        let nil = nil t in
        let rec walk n best =
          if n = nil then best
          else
            let nk = key t n in
            if C.compare nk k >= 0 then walk (left t n) (Some (nk, value t n))
            else walk (right t n) best
        in
        walk (root t) None)

  let to_list t = List.rev (fold t (fun acc k v -> (k, v) :: acc) [])

  (* ---- invariant check (for property tests) ----
     1. BST order (strictly between the bounding ancestors' keys);
     2. root is black; 3. no red node has a red child;
     4. every root-to-leaf path has the same black height;
     5. parent pointers are consistent; 6. count matches. *)
  let check t =
    P.read_tx t.p (fun () ->
        let nil = nil t in
        let errors = ref [] in
        let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
        if color t (root t) <> black then err "root is not black";
        if color t nil <> black then err "nil is not black";
        let count = ref 0 in
        let rec walk n lo hi =
          if n = nil then 1 (* black height of a leaf *)
          else begin
            incr count;
            let k = key t n in
            let above = function None -> true | Some b -> C.compare k b > 0 in
            let below = function None -> true | Some b -> C.compare k b < 0 in
            if not (above lo && below hi) then
              err "BST violation at key %s" (C.pp k);
            if color t n = red then begin
              if color t (left t n) = red || color t (right t n) = red then
                err "red node %s has red child" (C.pp k)
            end;
            if left t n <> nil && parent t (left t n) <> n then
              err "bad parent pointer below %s (left)" (C.pp k);
            if right t n <> nil && parent t (right t n) <> n then
              err "bad parent pointer below %s (right)" (C.pp k);
            let bl = walk (left t n) lo (Some k) in
            let br = walk (right t n) (Some k) hi in
            if bl <> br then err "black-height mismatch at %s" (C.pp k);
            bl + (if color t n = black then 1 else 0)
          end
        in
        ignore (walk (root t) None None);
        if P.load t.p (t.tree + o_count) <> !count then
          err "count %d but %d nodes" (P.load t.p (t.tree + o_count)) !count;
        match !errors with
        | [] -> Ok ()
        | es -> Error (String.concat "; " es))
end

module Make (P : Romulus.Ptm_intf.S) = Of_codec (Codec.Word) (P)
