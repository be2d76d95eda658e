(** Tracking of non-persisted cache lines inside a simulated region.

    Lines move CLEAN -> DIRTY (a store landed in the line) -> PENDING (a pwb
    was issued for the line) -> CLEAN (a fence persisted it, or a crash
    resolved its fate). *)

type t

val create : lines:int -> t

(** Record a store into [line]. *)
val set_dirty : t -> int -> unit

(** Record a pwb of [line]. *)
val set_pending : t -> int -> unit

(** Mark [line] clean (synchronously persisted by an ordered pwb). *)
val set_clean : t -> int -> unit

(** True when [line] has no un-persisted store in flight: its volatile and
    persistent copies agree (modulo media faults). *)
val is_clean : t -> int -> bool

(** [first_non_clean t ~first ~last] is the first line of [first, last]
    that is not clean, or [last + 1] when every one is. *)
val first_non_clean : t -> first:int -> last:int -> int

(** [flush_pending t f] calls [f line] for every pending line, marking it
    clean; dirty lines are kept for later. *)
val flush_pending : t -> (int -> unit) -> unit

(** [drain_all t f] calls [f line was_pending] for every non-clean line and
    clears the whole set.  Used when simulating a crash, where both pending
    and merely-dirty (evictable) lines may or may not have reached the
    medium. *)
val drain_all : t -> (int -> bool -> unit) -> unit

(** Number of non-clean lines. *)
val cardinal : t -> int
