(** Codecs for {!Hash_map} and {!Rb_tree}: how a key or a value lives in
    one 8-byte slot of a node.  A container uses one codec for both its
    keys and its values.

    A codec owns what its slot points to.  Every operation takes the
    slot's address, so a container only links nodes (bucket chains,
    rotations) and calls its codec where a key or a value is written,
    read, compared, replaced or dropped. *)

module type OPS = sig
  type t
  type ptm

  (** [store p slot x] fills a fresh slot with [x]. *)
  val store : ptm -> int -> t -> unit

  val load : ptm -> int -> t

  (** [equal_at p slot x] is [load p slot = x]. *)
  val equal_at : ptm -> int -> t -> bool

  (** [compare_at p slot x] is [compare (load p slot) x]. *)
  val compare_at : ptm -> int -> t -> int

  (** Replace the slot's content with [x]. *)
  val overwrite : ptm -> int -> t -> unit

  (** Release what the slot owns (the slot itself is left as is). *)
  val free : ptm -> int -> unit

  val compare : t -> t -> int
  val hash : t -> int
  val pp : t -> string
end

module type S = sig
  type t

  module Make (P : Romulus.Ptm_intf.S) : OPS with type t = t and type ptm = P.t
end

(** FNV-1a over a string's bytes in OCaml's 63-bit int (the offset basis
    truncated to 63 bits).  {!Blob}'s [hash] is [fnv1a s land max_int],
    and the sharded store derives its route from the same value, so a
    caller that needs both hashes the bytes once. *)
val fnv1a : string -> int

(** The value sits inline in the slot.  [free] is a no-op; [hash] is
    multiplicative. *)
module Word : S with type t = int

(** The slot points at a length-prefixed blob ([[0] length [8..] bytes]).
    [store] allocates it; [free] releases it; [overwrite] rewrites it in
    place when the length is unchanged and reallocates it otherwise;
    [hash] is FNV-1a. *)
module Blob : S with type t = string
