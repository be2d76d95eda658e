(** Persistent red-black tree map (CLRS-style with parent pointers and an
    allocated nil sentinel) over one codec for its keys and values (see
    {!Codec}) — the paper's "many stores per transaction" structure.
    Node layout: [[0] key slot [8] value slot [16] left [24] right
    [32] parent [40] color]. *)

module Of_codec (C : Codec.S) (P : Romulus.Ptm_intf.S) : sig
  type t

  val create : P.t -> root:int -> t
  val attach : P.t -> root:int -> t

  (** Attach to the tree at [root], creating it when absent. *)
  val open_or_create : P.t -> root:int -> t

  (** Insert or overwrite; true when the key was new. *)
  val put : t -> C.t -> C.t -> bool

  val get : t -> C.t -> C.t option
  val mem : t -> C.t -> bool

  (** Remove the binding, releasing its key and value through the codec;
      true when the key was present. *)
  val remove : t -> C.t -> bool

  (** Ascending fold over the bindings. *)
  val fold : t -> ('a -> C.t -> C.t -> 'a) -> 'a -> 'a

  (** Ascending fold over the bindings with [lo <= key <= hi]; visits only
      the relevant subtrees. *)
  val fold_range :
    t -> lo:C.t -> hi:C.t -> ('a -> C.t -> C.t -> 'a) -> 'a -> 'a

  (** Smallest binding with key >= the argument. *)
  val find_first : t -> C.t -> (C.t * C.t) option

  val to_list : t -> (C.t * C.t) list
  val length : t -> int

  (** Full red-black invariant check: BST order, black root, no red-red
      edges, equal black heights, parent consistency, count. *)
  val check : t -> (unit, string) result
end

(** Integer keys and word values: the tree of the paper's §6.2. *)
module Make (P : Romulus.Ptm_intf.S) :
  module type of Of_codec (Codec.Word) (P)
