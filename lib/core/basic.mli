(** Romulus (basic): twin-copy engine with whole-span replication at
    commit, flat combining + C-RW-WP concurrency — the paper's "Rom". *)

include Recoverable.S

val engine : t -> Engine.t
