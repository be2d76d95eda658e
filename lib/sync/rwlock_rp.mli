(** Reader-preference reader-writer lock (the unfair
    std::shared_timed_mutex used around PMDK in the paper's evaluation).
    Readers never defer to waiting writers, so writers can starve. *)

type t

val create : unit -> t
val read_lock : t -> unit
val read_unlock : t -> unit
val write_lock : t -> unit
val write_unlock : t -> unit
