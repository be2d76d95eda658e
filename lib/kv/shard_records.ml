(* The on-media records of the sharded store, each declared once.

   [Sharded_db] keeps its cross-shard protocol, routing and health state
   in records hung off reserved root slots of its shards.  This module
   owns every one of them: the root slot it hangs off, its fields with
   their offsets, its size, one writer and one bounded reader.
   [Sharded_db] and the [Shard_*] modules under it never touch a record
   word themselves.

   A persistent image is opened or refused by name.  Every reader checks
   each offset and length it loads against the end of the shard's heap
   (not of the region: a RomulusLR back reader adds [main_size] to each
   offset) before it uses it, every list walk stops after as many
   records as the heap can hold, and every payload decoder checks each
   length against the bytes it holds.  A failed check raises
   [Romulus.Engine.Recovery_error] through [refuse], whose message names
   the shard, the root slot, the record and the field.  The checks load
   and store nothing, so a valid image sees exactly the loads and stores
   of the protocol itself. *)

(* The per-shard health verdicts of [Sharded_db] (documented there),
   declared here for the health record's codec. *)
type health_cause =
  | Unrepairable_media of { offset : int; state : string }
  | Open_failed of string
  | Evacuated of { target : int }

type health =
  | Healthy
  | Degraded of health_cause
  | Quarantined of health_cause

(* A routing table has [slots_per_shard] slots per shard the store was
   created with. *)
let slots_per_shard = 8

(* A key's routing slot is [route_hash k mod] the table's slot count, so
   the table routes only under this exact hash: FNV-1a (the map's bucket
   hash) plus an avalanche step, so the shard route is independent of
   the bucket index even when the shard count shares factors with the
   bucket count.  [route_of_fnv] takes the raw [Pds.Codec.fnv1a], so a
   get that needs the bucket hash too hashes the key once. *)
let route_of_fnv h =
  let h = h lxor (h lsr 33) in
  let h = h * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land max_int

let route_hash s = route_of_fnv (Pds.Codec.fnv1a s)

(* ---- chunk chains (PTM-independent) ----

   A payload too large for one allocation is cut into bounded pieces;
   each piece is stored in its own record with a CRC-32 and reassembled
   on read with every CRC re-verified and the total length checked
   against the mirror header.  Pure, so the round-trip and the
   rejection of truncated / corrupted chains are testable without a
   store. *)
module Chunk = struct
  let crc s = Pmem.Crc32.string s

  (* cut [payload] into pieces of at most [chunk_bytes] (the last piece
     may be shorter); the empty payload is one empty piece *)
  let split ~chunk_bytes payload =
    if chunk_bytes <= 0 then invalid_arg "Chunk.split: chunk_bytes <= 0";
    let n = String.length payload in
    if n = 0 then [ "" ]
    else begin
      let rec go pos acc =
        if pos >= n then List.rev acc
        else
          let len = min chunk_bytes (n - pos) in
          go (pos + len) (String.sub payload pos len :: acc)
      in
      go 0 []
    end

  (* reassemble a chain read back as (piece, stored_crc) pairs in chain
     order; every piece must pass its CRC and the total must be exactly
     [expect_len] *)
  let join ~expect_len pieces =
    let b = Buffer.create expect_len in
    let rec go = function
      | [] ->
        if Buffer.length b <> expect_len then
          Error
            (Printf.sprintf "chunk chain holds %d bytes, mirror declares %d"
               (Buffer.length b) expect_len)
        else Ok (Buffer.contents b)
      | (piece, stored) :: rest ->
        if crc piece <> stored then
          Error
            (Printf.sprintf "chunk CRC mismatch at payload byte %d"
               (Buffer.length b))
        else if Buffer.length b + String.length piece > expect_len then
          Error
            (Printf.sprintf "chunk chain exceeds declared length %d"
               expect_len)
        else begin
          Buffer.add_string b piece;
          go rest
        end
    in
    go pieces
end

module Make (P : sig
  include Romulus.Ptm_intf.S

  val heap_end : t -> int (* read without a load *)
end) =
struct
  (* ---- the root-slot map ----

     Slot [db_root] anchors the key map, as in [Romulus_db].  The
     reserved slots sit at the top of the root array, and none is
     touched before the first cross-shard batch, resize or health change,
     so a 1-shard store stays bit-for-bit identical to [Romulus_db]. *)
  let db_root = 0

  (* shard 0: a record of the removed shard-0 intent protocol; nothing
     writes it, and recovery refuses an image where it is set *)
  let intent_slot = Romulus.Ptm_intf.root_slots - 1

  let mirror_slot = Romulus.Ptm_intf.root_slots - 2 (* each shard's mirrors *)
  let flip_slot = Romulus.Ptm_intf.root_slots - 3 (* each coordinator's flips *)
  let route_slot = Romulus.Ptm_intf.root_slots - 4 (* shard 0 *)
  let mig_slot = Romulus.Ptm_intf.root_slots - 5 (* shard 0 *)
  let cursor_slot = Romulus.Ptm_intf.root_slots - 6 (* migration source *)
  let tomb_slot = Romulus.Ptm_intf.root_slots - 7 (* migration target *)
  let health_slot = Romulus.Ptm_intf.root_slots - 8 (* shard 0 *)

  let root p slot = P.read_tx p (fun () -> P.get_root p slot)

  (* A record kind: its name in refusals, the root slot its records hang
     off, and its fixed size in bytes (the header, for records followed
     by a variable-length payload). *)
  type record = { name : string; slot : int; size : int }

  (* The one refusal of a persistent image. *)
  let refuse r shard field fmt =
    Printf.ksprintf
      (fun msg ->
        raise
          (Romulus.Engine.Recovery_error
             (Printf.sprintf
                "sharded %s record (shard %d, root slot %d), %s: %s" r.name
                shard r.slot field msg)))
      fmt

  (* [off, off + len) lies inside the heap; offset 0 is null *)
  let inside p r i field off len =
    let heap_end = P.heap_end p in
    if off <= 0 || len < 0 || off > heap_end - len then
      refuse r i field "[%d, %d + %d) is outside the heap ending at %d" off
        off len heap_end

  (* [f o] on the record [o] at root slot [r.slot] of shard [i], in its
     own read transaction; None when the slot is empty *)
  let read_root p r i f =
    match root p r.slot with
    | 0 -> None
    | o ->
      Some
        (P.read_tx p (fun () ->
             inside p r i "offset" o r.size;
             f o))

  (* ---- lists ----

     A listed record keeps its successor's offset in its first word.  The
     one walk: [f off] visits the record at [off] and returns the
     successor (0 ends the walk), so a visitor that frees the record
     loads the link first.  A list longer than the heap can hold is a
     cycle. *)
  let next p off = P.load p off

  let walk p r i head f =
    let limit = P.heap_end p / r.size in
    let rec go n off =
      if off <> 0 then begin
        if n = limit then
          refuse r i "next" "more than %d records: the list has a cycle" limit;
        inside p r i (if n = 0 then "head" else "next") off r.size;
        go (n + 1) (f off)
      end
    in
    go 0 head

  (* visit each record of the list at root slot [r.slot], then follow
     its link *)
  let iter p r i f =
    walk p r i (P.get_root p r.slot) (fun off ->
        f off;
        next p off)

  let count p r i =
    let n = ref 0 in
    P.read_tx p (fun () -> iter p r i (fun _ -> incr n));
    !n

  (* splice [off] out of the list at root slot [r.slot] and free it; a
     no-op when it is already gone (inside an update tx) *)
  let unhook p r i off =
    let prev = ref 0 in
    walk p r i (P.get_root p r.slot) (fun cur ->
        let succ = next p cur in
        if cur <> off then begin
          prev := cur;
          succ
        end
        else begin
          if !prev = 0 then P.set_root p r.slot succ else P.store p !prev succ;
          P.free p cur;
          0
        end)

  (* hook a fresh [r.size]-byte record, filled by [fill], at the head of
     the list at root slot [r.slot] (inside an update tx) *)
  let push p r fill =
    let o = P.alloc p r.size in
    P.store p o (P.get_root p r.slot);
    fill o;
    P.set_root p r.slot o;
    o

  (* unhook the list's first record (inside an update tx) *)
  let pop p r head =
    P.set_root p r.slot (next p head);
    P.free p head

  let free_chain p r i head =
    walk p r i head (fun c ->
        let succ = next p c in
        P.free p c;
        succ)

  (* install the fresh record [o] at [r.slot], freeing the one it
     replaces (inside an update tx) *)
  let swing p r o =
    let old = P.get_root p r.slot in
    P.set_root p r.slot o;
    if old <> 0 then P.free p old

  (* clear [r.slot] and free its record [off] (inside an update tx) *)
  let drop p r off =
    P.set_root p r.slot 0;
    P.free p off

  (* [drop] the record at [r.slot], if any, in its own transaction *)
  let clear p r =
    match root p r.slot with 0 -> () | o -> P.update_tx p (fun () -> drop p r o)

  (* ---- payload codecs (PTM-independent) ----

     All lengths are 64-bit little-endian; a value option carries a
     presence tag so "put empty string" and "delete" stay distinct.  A
     mirror stores one blob per shard slice whose undo entries each
     carry a leading validity byte ('\001' live, '\000' invalidated by
     a racing single-key write). *)

  let add_str b s =
    Buffer.add_int64_le b (Int64.of_int (String.length s));
    Buffer.add_string b s

  (* An undo image inside a mirror payload: the key's pre-batch value
     either did not exist, is stored inline, or — when larger than the
     spill threshold — was spilled into its own CRC-protected record and
     the payload carries only the (offset, length) reference.  A value
     option is stored as the absent or inline image. *)
  type undo_image =
    | U_absent
    | U_inline of string
    | U_spilled of { off : int; len : int }

  let image_of_opt = function None -> U_absent | Some v -> U_inline v

  let add_image b = function
    | U_absent -> Buffer.add_char b '\000'
    | U_inline v ->
      Buffer.add_char b '\001';
      add_str b v
    | U_spilled { off; len } ->
      Buffer.add_char b '\002';
      Buffer.add_int64_le b (Int64.of_int off);
      Buffer.add_int64_le b (Int64.of_int len)

  let add_kv_list b l =
    Buffer.add_int64_le b (Int64.of_int (List.length l));
    List.iter
      (fun (k, v) ->
        add_str b k;
        add_image b (image_of_opt v))
      l

  (* Mirror payload: shard count, the slice's ops, then undo entries with
     a per-entry validity byte.  Returns the payload plus each undo key's
     validity-byte offset *relative to the payload start*, so a racing
     write can invalidate its entry with a one-byte durable store. *)
  let encode_mirror ~nshards ~ops ~undo =
    let b = Buffer.create 256 in
    Buffer.add_int64_le b (Int64.of_int nshards);
    add_kv_list b ops;
    Buffer.add_int64_le b (Int64.of_int (List.length undo));
    let valid_offs =
      List.map
        (fun (k, img) ->
          let off = Buffer.length b in
          Buffer.add_char b '\001';
          add_str b k;
          add_image b img;
          (k, off))
        undo
    in
    (Buffer.contents b, valid_offs)

  (* Exact length of the payload [encode_mirror] would produce with every
     undo image inline — the admission-control charge of a mirror, and
     the streaming decision, without building the string. *)
  let opt_len = function None -> 1 | Some v -> 1 + 8 + String.length v

  let mirror_payload_len ~ops ~undo =
    let kv_list l =
      8
      + List.fold_left (fun a (k, v) -> a + 8 + String.length k + opt_len v) 0 l
    in
    (* an undo entry is a key/value pair behind its validity byte *)
    8 + kv_list ops + kv_list undo + List.length undo

  (* a payload being decoded, and the record it was read from *)
  type parser_ = {
    payload : string;
    mutable pos : int;
    r : record;
    shard : int;
  }

  let bad pr what =
    refuse pr.r pr.shard what "payload truncated or malformed at byte %d of %d"
      pr.pos (String.length pr.payload)

  let take_int pr what =
    if pr.pos + 8 > String.length pr.payload then bad pr what;
    let v = Int64.to_int (String.get_int64_le pr.payload pr.pos) in
    pr.pos <- pr.pos + 8;
    if v < 0 then bad pr what;
    v

  let take_str pr what =
    let len = take_int pr what in
    if len > String.length pr.payload - pr.pos then bad pr what;
    let s = String.sub pr.payload pr.pos len in
    pr.pos <- pr.pos + len;
    s

  let take_byte pr what =
    if pr.pos >= String.length pr.payload then bad pr what;
    let c = pr.payload.[pr.pos] in
    pr.pos <- pr.pos + 1;
    c

  let take_image pr what =
    match take_byte pr what with
    | '\000' -> U_absent
    | '\001' -> U_inline (take_str pr what)
    | '\002' ->
      let off = take_int pr what in
      let len = take_int pr what in
      U_spilled { off; len }
    | _ -> bad pr what

  let take_kv_list pr what =
    let n = take_int pr what in
    List.init n (fun _ ->
        let k = take_str pr what in
        match take_image pr what with
        | U_absent -> (k, None)
        | U_inline v -> (k, Some v)
        | U_spilled _ -> bad pr what)

  (* (nshards, ops, undo) where each undo entry carries its validity
     flag *)
  let decode_mirror r shard payload =
    let pr = { payload; pos = 0; r; shard } in
    let nshards = take_int pr "shard count" in
    let ops = take_kv_list pr "operation" in
    let n = take_int pr "undo" in
    let undo =
      List.init n (fun _ ->
          let valid =
            match take_byte pr "undo validity" with
            | '\000' -> false
            | '\001' -> true
            | _ -> bad pr "undo validity"
          in
          let k = take_str pr "undo" in
          (valid, k, take_image pr "undo"))
    in
    (nshards, ops, undo)

  (* health payload: shard count, then one tagged verdict per shard *)
  let add_cause b = function
    | Unrepairable_media { offset; state } ->
      Buffer.add_char b '\000';
      Buffer.add_int64_le b (Int64.of_int offset);
      add_str b state
    | Open_failed msg ->
      Buffer.add_char b '\001';
      add_str b msg
    | Evacuated { target } ->
      Buffer.add_char b '\002';
      Buffer.add_int64_le b (Int64.of_int target)

  let encode_health healths =
    let b = Buffer.create 64 in
    Buffer.add_int64_le b (Int64.of_int (Array.length healths));
    Array.iter
      (fun h ->
        match h with
        | Healthy -> Buffer.add_char b '\000'
        | Degraded c ->
          Buffer.add_char b '\001';
          add_cause b c
        | Quarantined c ->
          Buffer.add_char b '\002';
          add_cause b c)
      healths;
    Buffer.contents b

  let take_cause pr =
    match take_byte pr "health cause" with
    | '\000' ->
      let offset = take_int pr "health cause" in
      let state = take_str pr "health cause" in
      Unrepairable_media { offset; state }
    | '\001' -> Open_failed (take_str pr "health cause")
    | '\002' -> Evacuated { target = take_int pr "health cause" }
    | _ -> bad pr "health cause"

  let decode_health r payload =
    let pr = { payload; pos = 0; r; shard = 0 } in
    let n = take_int pr "verdict count" in
    Array.init n (fun _ ->
        match take_byte pr "verdict" with
        | '\000' -> Healthy
        | '\001' -> Degraded (take_cause pr)
        | '\002' -> Quarantined (take_cause pr)
        | _ -> bad pr "verdict")

  (* ---- CRC-checked records: word 0 | byte length | CRC-32 | 0 ... | bytes

     Payload chunks, spilled undo images and the migration cursor.  Word
     0 is the chain link of chunks and spills and the epoch of the
     cursor; header words past the CRC are reserved and written 0. *)
  let c_len = 8
  let c_crc = 16

  let fill_crc p r o bytes =
    P.store p (o + c_len) (String.length bytes);
    P.store p (o + c_crc) (Chunk.crc bytes);
    for w = 3 to (r.size / 8) - 1 do
      P.store p (o + (8 * w)) 0
    done;
    P.store_bytes p (o + r.size) bytes

  let write_crc p r ~word0 bytes =
    let o = P.alloc p (r.size + String.length bytes) in
    P.store p o word0;
    fill_crc p r o bytes;
    o

  (* the bytes of the record at [o] and their stored CRC, the length
     bounded by [max] and by the heap *)
  let read_crc p r i o ~max =
    inside p r i "header" o r.size;
    let len = P.load p (o + c_len) in
    if len < 0 || len > max then
      refuse r i "byte length" "%d is outside [0, %d]" len max;
    inside p r i "byte length" (o + r.size) len;
    let stored = P.load p (o + c_crc) in
    (P.load_bytes p (o + r.size) len, stored)

  let read_checked p r i o ~max =
    let bytes, stored = read_crc p r i o ~max in
    if Chunk.crc bytes <> stored then refuse r i "CRC" "mismatch at %d" o;
    bytes

  (* ---- mirror: next | batch id | coordinator | participant mask |
     sealed | payload length | chunk-chain head | spill-list head

     One per participant of a cross-shard batch, on the mirror list of
     its shard.  The payload always lives in the chunk chain (one
     chunk when nothing streams); [sealed] is 0 while the chain is streaming
     and flipped to 1 in the transaction that applies the slice, so
     sealed <=> slice applied and an unsealed chain is garbage for
     recovery to collect.  Chunks and spilled undo images are
     CRC-checked records whose word 0 links the next. *)
  module Mirror = struct
    let r = { name = "mirror"; slot = mirror_slot; size = 64 }
    let chunk = { name = "mirror chunk"; slot = mirror_slot; size = 24 }
    let spill = { name = "spilled undo image"; slot = mirror_slot; size = 24 }
    let m_id = 8
    let m_coord = 16
    let m_mask = 24
    let m_sealed = 32
    let m_plen = 40
    let m_chunks = 48
    let m_spills = 56

    let push p ~id ~coord ~mask ~sealed ~plen ~chunks =
      push p r @@ fun o ->
      P.store p (o + m_id) id;
      P.store p (o + m_coord) coord;
      P.store p (o + m_mask) mask;
      P.store p (o + m_sealed) sealed;
      P.store p (o + m_plen) plen;
      P.store p (o + m_chunks) chunks;
      P.store p (o + m_spills) 0

    let seal p o ~plen =
      P.store p (o + m_plen) plen;
      P.store p (o + m_sealed) 1

    (* a payload chunk, unlinked; [byte c rel] is the offset of payload
       byte [rel] of chunk [c] *)
    let write_chunk p bytes = write_crc p chunk ~word0:0 bytes
    let byte c rel = c + chunk.size + rel

    (* link chunk [c] after [prev], or as the head of mirror [o]'s chain
       when [prev] is 0 *)
    let link_chunk p o ~prev c =
      if prev = 0 then P.store p (o + m_chunks) c else P.store p prev c

    let add_spill p o v =
      let s = P.alloc p (spill.size + String.length v) in
      P.store p s (P.load p (o + m_spills));
      fill_crc p spill s v;
      P.store p (o + m_spills) s;
      s

    (* invalidate the undo entry whose validity byte is at [valid] in
       chunk [c], refreshing the chunk's CRC (inside an update tx) *)
    let invalidate p ~chunk:c ~valid =
      P.store_bytes p valid "\000";
      let len = P.load p (c + c_len) in
      let bytes = P.load_bytes p (c + chunk.size) len in
      P.store p (c + c_crc) (Chunk.crc bytes)

    let mask p o = P.load p (o + m_mask)
    let coord p o = P.load p (o + m_coord)

    (* (batch id, coordinator, sealed) of mirror [o] on shard [i] *)
    let header p i ~shards o =
      let sealed = P.load p (o + m_sealed) in
      let coord = P.load p (o + m_coord) in
      let id = P.load p (o + m_id) in
      if coord < 0 || coord >= shards then
        refuse r i "coordinator" "%d of %d shards" coord shards;
      if sealed <> 0 && sealed <> 1 then
        refuse r i "sealed" "bad seal word %d" sealed;
      (id, coord, sealed)

    (* the undo entries of the *sealed* mirror [o] on shard [i]; every
       chunk's CRC and the total length are verified against the header,
       and the payload may name at most [shards] shards (it may predate
       a split).  [header] and [read] take a mirror offset the bounded
       list walk produced, or one this process hooked. *)
    let read p i ~shards o =
      let plen = P.load p (o + m_plen) in
      if plen < 0 || plen > P.heap_end p then
        refuse r i "payload length" "%d is outside the heap" plen;
      let pieces = ref [] in
      walk p chunk i
        (P.load p (o + m_chunks))
        (fun c ->
          let succ = next p c in
          pieces := read_crc p chunk i c ~max:plen :: !pieces;
          succ);
      match Chunk.join ~expect_len:plen (List.rev !pieces) with
      | Error msg -> refuse chunk i "chain" "%s" msg
      | Ok payload ->
        let nshards, _, undo = decode_mirror r i payload in
        if nshards <= 0 || nshards > shards then
          refuse r i "shard count" "%d, store has %d" nshards shards;
        undo

    let spilled p i ~off ~len =
      let v = read_checked p spill i off ~max:len in
      if String.length v <> len then
        refuse spill i "byte length" "%d, the mirror names %d"
          (String.length v) len;
      v

    (* free mirror [o] with its chunk chain and spilled undo images and
       splice it out of the list (inside an update tx); never reads
       payload bytes, so it is safe on unsealed chains *)
    let reclaim p i o =
      free_chain p chunk i (P.load p (o + m_chunks));
      free_chain p spill i (P.load p (o + m_spills));
      unhook p r i o
  end

  (* ---- flip: next | batch id | participant mask

     A batch's COMMIT, on its coordinator's flip list. *)
  module Flip = struct
    let r = { name = "flip"; slot = flip_slot; size = 24 }

    let push p ~id ~mask =
      push p r @@ fun o ->
      P.store p (o + 8) id;
      P.store p (o + 16) mask

    let id p o = P.load p (o + 8)
    let mask p o = P.load p (o + 16)
  end

  (* at most this many routing slots in a table or an intent *)
  let max_slots = slots_per_shard * 4096

  (* ---- routing table (shard 0): epoch | slot count | shard count |
     one shard index per slot

     Replaced wholesale by every epoch flip. *)
  module Route = struct
    let r = { name = "routing table"; slot = route_slot; size = 24 }

    let write p ~epoch ~shards assignment =
      let n = Array.length assignment in
      let o = P.alloc p (r.size + (8 * n)) in
      P.store p o epoch;
      P.store p (o + 8) n;
      P.store p (o + 16) shards;
      Array.iteri (fun s a -> P.store p (o + r.size + (8 * s)) a) assignment;
      swing p r o

    (* (epoch, assignment), every shard index below [shards] *)
    let read p ~shards =
      read_root p r 0 @@ fun o ->
      let epoch = P.load p o in
      let n = P.load p (o + 8) in
      if epoch < 0 then refuse r 0 "epoch" "%d is negative" epoch;
      if n <= 0 || n > max_slots then
        refuse r 0 "slot count" "%d is outside [1, %d]" n max_slots;
      inside p r 0 "slot count" o (r.size + (8 * n));
      ( epoch,
        Array.init n (fun s ->
            let a = P.load p (o + r.size + (8 * s)) in
            if a < 0 || a >= shards then
              refuse r 0 "assignment"
                "slot %d names shard %d, store has %d regions (reopen with \
                 every shard of the family attached)"
                s a shards;
            a) )
  end

  (* ---- health (shard 0): byte length | payload

     The per-shard verdicts ([encode_health]), replaced wholesale. *)
  module Health = struct
    let r = { name = "health"; slot = health_slot; size = 8 }

    let write p healths =
      let payload = encode_health healths in
      let len = String.length payload in
      let o = P.alloc p (r.size + len) in
      P.store p o len;
      P.store_bytes p (o + r.size) payload;
      swing p r o

    let read p =
      read_root p r 0 (fun o ->
          let len = P.load p o in
          inside p r 0 "byte length" (o + r.size) len;
          P.load_bytes p (o + r.size) len)
      |> Option.map (decode_health r)
  end

  (* ---- migration intent (shard 0): kind | source | target | new epoch |
     slot count | one byte per slot, '\001' when it moves

     Kind 0 is a split, 1 a merge, 2 an evacuation. *)
  module Intent = struct
    let r = { name = "migration intent"; slot = mig_slot; size = 40 }

    let write p ~kind ~source ~target ~epoch moving =
      let n = Array.length moving in
      let o = P.alloc p (r.size + n) in
      P.store p o kind;
      P.store p (o + 8) source;
      P.store p (o + 16) target;
      P.store p (o + 24) epoch;
      P.store p (o + 32) n;
      P.store_bytes p (o + r.size)
        (String.init n (fun s -> if moving.(s) then '\001' else '\000'));
      P.set_root p r.slot o

    let slots p o =
      let n = P.load p (o + 32) in
      if n <= 0 || n > max_slots then
        refuse r 0 "slot count" "%d is outside [1, %d]" n max_slots;
      n

    let read_slots p = read_root p r 0 (slots p)

    (* the intent's offset and (kind, source, target, new epoch, moving
       slots), checked against the store's [shards] and its routing
       table's slot count [n_slots] and [epoch] *)
    let read p ~shards ~n_slots ~epoch =
      read_root p r 0 @@ fun o ->
      let n = slots p o in
      inside p r 0 "slot count" o (r.size + n);
      let bitmap = P.load_bytes p (o + r.size) n in
      let mepoch = P.load p (o + 24) in
      let target = P.load p (o + 16) in
      let source = P.load p (o + 8) in
      let kind = P.load p o in
      if kind < 0 || kind > 2 then refuse r 0 "kind" "bad kind %d" kind;
      if source < 0 || source >= shards || target < 0 || target >= shards then
        refuse r 0 "shards"
          "%d->%d, store has %d regions (reopen with the migration target's \
           region attached)"
          source target shards;
      if n <> n_slots then
        refuse r 0 "slot count" "%d, the routing table has %d" n n_slots;
      if mepoch <> epoch && mepoch <> epoch + 1 then
        refuse r 0 "epoch" "%d does not follow table epoch %d" mepoch epoch;
      let moving = Array.init n (fun s -> bitmap.[s] = '\001') in
      (o, (kind, source, target, mepoch, moving))
  end

  (* ---- migration cursor (the source): epoch | byte length | CRC-32 |
     reserved | payload

     The current move batch's (key, value) pairs, written in the source
     transaction that deletes them from the source map. *)
  module Cursor = struct
    let r = { name = "migration cursor"; slot = cursor_slot; size = 32 }

    (* replace the cursor (inside an update tx); returns the payload
       length *)
    let write p ~epoch moved =
      let b = Buffer.create 256 in
      add_kv_list b (List.map (fun (k, v) -> (k, Some v)) moved);
      let payload = Buffer.contents b in
      swing p r (write_crc p r ~word0:epoch payload);
      String.length payload

    (* Cut (key, value) pairs, in order, into consecutive batches whose
       payload stays within [limit] bytes (at least one pair each) and
       apply [f] to each.  A pair costs its key and value lengths, its
       presence tag and the bytes themselves; the pair count 8 more. *)
    let batches ~limit f kvs =
      let flush acc = if acc <> [] then f (List.rev acc) in
      let cost (k, v) = 17 + String.length k + String.length v in
      List.fold_left
        (fun (acc, len) kv ->
          if acc <> [] && len + cost kv > limit then begin
            flush acc;
            ([ kv ], 8 + cost kv)
          end
          else (kv :: acc, len + cost kv))
        ([], 8) kvs
      |> fst |> flush

    (* (epoch, moved pairs) of shard [i]'s cursor *)
    let read p i =
      read_root p r i @@ fun o ->
      let epoch = P.load p o in
      let payload = read_checked p r i o ~max:max_int in
      let pr = { payload; pos = 0; r; shard = i } in
      ( epoch,
        List.filter_map
          (fun (k, v) -> Option.map (fun v -> (k, v)) v)
          (take_kv_list pr "moved pairs") )
  end
end
