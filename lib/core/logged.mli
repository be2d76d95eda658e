(** RomulusLog: twin-copy engine with the volatile redo log of §4.7 (only
    modified ranges are replicated), flat combining + C-RW-WP — the
    paper's "RomL" and its recommended default. *)

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
