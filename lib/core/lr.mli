(** RomulusLR (§5.3): the twin-copy engine composed with Left-Right —
    wait-free read-only transactions that read the back copy through
    synthetic pointers, and starvation-free flat-combined updates
    ({!Fc_front} with the Left-Right sync module). *)

include Recoverable.S

val engine : t -> Engine.t

(** Debug hook: the calling domain's current synthetic-pointer offset
    (0 when addressing main, [main_size] when a read-only transaction is
    parked on the back copy). *)
val current_delta : unit -> int
