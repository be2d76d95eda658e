(** Sorted RomulusDB: the LevelDB interface over a persistent red-black
    tree of string keys and values ({!Pds.Rb_tree} on {!Pds.Codec.Blob})
    — key-ordered iteration and range scans, unlike the hash-ordered
    RomulusDB of §6.4. *)

module Make (P : Romulus.Ptm_intf.S) : sig
  type t

  val open_db : Pmem.Region.t -> t
  val put : t -> string -> string -> unit
  val get : t -> string -> string option
  val delete : t -> string -> bool
  val count : t -> int

  (** All-or-nothing batch: one transaction, one set of fences. *)
  val write_batch : t -> (t -> unit) -> unit

  (** Ascending-key iteration. *)
  val iter : t -> (string -> string -> unit) -> unit

  (** Inclusive range scan, ascending. *)
  val iter_range :
    t -> lo:string -> hi:string -> (string -> string -> unit) -> unit

  val check : t -> (unit, string) result
end

module Default : module type of Make (Romulus.Logged)
