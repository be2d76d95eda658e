(** RomulusLog: twin-copy engine with the volatile redo log of §4.7 (only
    modified ranges are replicated), flat combining + C-RW-WP — the
    paper's "RomL" and its recommended default. *)

include Recoverable.S

val engine : t -> Engine.t
