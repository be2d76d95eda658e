(** RomulusLR (§5.3): the twin-copy engine composed with Left-Right —
    wait-free read-only transactions that read the back copy through
    synthetic pointers, and starvation-free flat-combined updates. *)

include Ptm_intf.S

val open_salvage : Pmem.Region.t -> t * (int * string) list

val engine : t -> Engine.t
val recover : t -> unit
val recover_salvage : t -> (int * string) list
val scrub : t -> Engine.scrub_report
val scrub_salvage : t -> Engine.scrub_report
val media_spans : t -> (int * int) list
val heap_end : t -> int
val allocator_check : t -> (unit, string) result

(** Debug hook: the calling domain's current synthetic-pointer offset
    (0 when addressing main, [main_size] when a read-only transaction is
    parked on the back copy). *)
val current_delta : unit -> int
