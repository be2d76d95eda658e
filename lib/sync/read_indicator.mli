(** Per-thread reader-presence array (the C-RW-WP read indicator). *)

type t

val create : unit -> t

(** Announce the reader with slot [tid].  Re-entrant (counting).  Raises
    the indicator's registration watermark to cover [tid] first. *)
val arrive : t -> int -> unit

val depart : t -> int -> unit

(** No reader is announced.  Scans only the slots below the registration
    watermark: the highest slot that ever arrived bounds the cost. *)
val is_empty : t -> bool

(** Spin until no reader is announced. *)
val wait_empty : t -> unit
