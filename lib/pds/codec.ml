(* Codecs: how a key or a value lives in one 8-byte node slot.
   See codec.mli. *)

module type OPS = sig
  type t
  type ptm

  val store : ptm -> int -> t -> unit
  val load : ptm -> int -> t
  val equal_at : ptm -> int -> t -> bool
  val compare_at : ptm -> int -> t -> int
  val overwrite : ptm -> int -> t -> unit
  val free : ptm -> int -> unit
  val compare : t -> t -> int
  val hash : t -> int
  val pp : t -> string
end

module type S = sig
  type t

  module Make (P : Romulus.Ptm_intf.S) : OPS with type t = t and type ptm = P.t
end

(* FNV-1a over the bytes, deterministic across runs: the offset basis
   truncated to 63 bits, the prime's products wrapping in OCaml's int.
   A top-level recursion, so a hash allocates nothing. *)
let rec fnv1a_from h s i =
  if i = String.length s then h
  else
    let h = (h lxor Char.code (String.unsafe_get s i)) * 0x100000001b3 in
    fnv1a_from h s (i + 1)

let fnv1a s = fnv1a_from 0x4bf29ce484222325 s 0

module Word = struct
  type t = int

  module Make (P : Romulus.Ptm_intf.S) = struct
    type nonrec t = t
    type ptm = P.t

    let store = P.store
    let load = P.load
    let equal_at p slot k = Int.equal (P.load p slot) k
    let compare_at p slot k = Int.compare (P.load p slot) k
    let overwrite = P.store
    let free _ _ = ()
    let compare = Int.compare
    let hash k = (k * 0x2545F4914F6CDD1D) land max_int
    let pp = string_of_int
  end
end

module Blob = struct
  type t = string

  module Make (P : Romulus.Ptm_intf.S) = struct
    type nonrec t = t
    type ptm = P.t

    (* blob: [0] length [8..] bytes *)
    let alloc p s =
      let b = P.alloc p (8 + String.length s) in
      P.store p b (String.length s);
      if String.length s > 0 then P.store_bytes p (b + 8) s;
      b

    let read p b =
      let len = P.load p b in
      if len = 0 then "" else P.load_bytes p (b + 8) len

    let store p slot s = P.store p slot (alloc p s)
    let load p slot = read p (P.load p slot)

    (* Both compare the stored bytes in place (P.compare_bytes), reading
       the length word once; an empty stored blob costs no byte read, as
       in [read].  In [equal_at] the length word settles most mismatches
       without reading the bytes. *)
    let equal_at p slot s =
      let b = P.load p slot in
      let len = P.load p b in
      len = String.length s && (len = 0 || P.compare_bytes p (b + 8) len s = 0)

    let compare_at p slot s =
      let b = P.load p slot in
      let len = P.load p b in
      if len = 0 then String.compare "" s
      else P.compare_bytes p (b + 8) len s

    (* a value of the old blob's length is rewritten in place: the
       allocator stays off the same-length overwrite path *)
    let overwrite p slot s =
      let b = P.load p slot in
      if P.load p b = String.length s then begin
        if s <> "" then P.store_bytes p (b + 8) s
      end
      else begin
        P.free p b;
        P.store p slot (alloc p s)
      end

    let free p slot = P.free p (P.load p slot)
    let compare = String.compare

    let hash s = fnv1a s land max_int

    let pp = Printf.sprintf "%S"
  end
end
