(** Persistent hash map with chaining over one codec for its keys and
    values (see {!Codec}).  The resizable flavour maintains a shared element
    counter that drives bucket doubling (the contention point of §6.2);
    the fixed flavour is the statically-dimensioned variant of Figure 5.
    Node layout: [[0] next [8] key slot [16] value slot]. *)

module Of_codec (C : Codec.S) (P : Romulus.Ptm_intf.S) : sig
  type t

  val create :
    ?resizable:bool -> ?initial_buckets:int -> P.t -> root:int -> t

  val attach : ?resizable:bool -> P.t -> root:int -> t

  (** Attach to the resizable map at [root], creating it when absent. *)
  val open_or_create : ?initial_buckets:int -> P.t -> root:int -> t

  (** Insert or overwrite; true when the key was new. *)
  val put : t -> C.t -> C.t -> bool

  val get : t -> C.t -> C.t option

  (** [get_hashed t ~hash k] is [get t k] for a caller that already holds
      [hash], which must be the codec's hash of [k]. *)
  val get_hashed : t -> hash:int -> C.t -> C.t option

  val mem : t -> C.t -> bool
  val remove : t -> C.t -> bool

  (** Fold in bucket order; [reverse] walks the buckets backwards. *)
  val fold : ?reverse:bool -> t -> ('a -> C.t -> C.t -> 'a) -> 'a -> 'a

  val iter : ?reverse:bool -> t -> (C.t -> C.t -> unit) -> unit
  val length : t -> int

  (** Current bucket count (tests). *)
  val nbuckets : t -> int

  (** Structural invariant check. *)
  val check : t -> (unit, string) result
end

(** Integer keys and word values: the map of the paper's §6.2. *)
module Make (P : Romulus.Ptm_intf.S) :
  module type of Of_codec (Codec.Word) (P)
