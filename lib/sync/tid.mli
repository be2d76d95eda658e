(** Dense per-domain thread ids for statically-sized per-thread arrays. *)

val max_threads : int

exception Too_many_threads

(** Run [f tid] with a slot reserved for the current domain, releasing it
    afterwards (unless the domain was already registered). *)
val with_slot : (int -> 'a) -> 'a

(** The current domain's slot, lazily acquired and kept until the domain
    exits. *)
val current : unit -> int

(** [cover hi tid] raises the registration watermark [hi] (1 + the
    highest slot registered) to cover slot [tid].  It never lowers [hi]. *)
val cover : int Atomic.t -> int -> unit
