(** Persistent B+tree map over one codec for its keys and values (see
    {!Codec}): values in chained leaves (ordered scans and range
    queries), proactive splits on insert, lazy deletion.  Deletion only
    removes leaf entries: separators are never removed and stay owned by
    their internal node. *)

module Of_codec (C : Codec.S) (P : Romulus.Ptm_intf.S) : sig
  type t

  val create : P.t -> root:int -> t
  val attach : P.t -> root:int -> t
  val open_or_create : P.t -> root:int -> t

  (** Insert or overwrite; true when the key was new. *)
  val put : t -> C.t -> C.t -> bool

  val get : t -> C.t -> C.t option
  val mem : t -> C.t -> bool
  val remove : t -> C.t -> bool
  val length : t -> int

  (** Ascending fold / iteration over all bindings (leaf chain). *)
  val fold : t -> ('a -> C.t -> C.t -> 'a) -> 'a -> 'a

  val iter : t -> (C.t -> C.t -> unit) -> unit
  val to_list : t -> (C.t * C.t) list

  (** Ascending fold over bindings with [lo <= key <= hi]. *)
  val fold_range : t -> lo:C.t -> hi:C.t -> ('a -> C.t -> C.t -> 'a) -> 'a -> 'a

  (** Structural check: key and separator ordering, separator ranges,
      no internal node without keys, leaf chain consistency, count. *)
  val check : t -> (unit, string) result
end

(** Integer keys and word values. *)
module Make (P : Romulus.Ptm_intf.S) :
  module type of Of_codec (Codec.Word) (P)
