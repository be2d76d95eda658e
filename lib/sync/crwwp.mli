(** C-RW-WP scalable reader-writer lock with writer preference (§5.2). *)

type t

val create : unit -> t

(** [read_lock t tid] announces the reader in its read-indicator slot; if a
    writer holds or is acquiring the lock the reader backs off first. *)
val read_lock : t -> int -> unit

val read_unlock : t -> int -> unit

(** Acquire the writer spinlock, then wait for all readers to drain. *)
val write_lock : t -> unit

(** Non-blocking writer-lock attempt; on success readers have drained. *)
val try_write_lock : t -> bool

val write_unlock : t -> unit
