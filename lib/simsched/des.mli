(** Discrete-event simulator: a timestamped event queue with a
    deterministic PRNG, used to extrapolate multi-thread throughput from
    measured single-thread costs (the measurement host has 2 shared
    vCPUs, [nproc] = 2; see DESIGN.md). *)

type t

val create : ?seed:int -> unit -> t

(** Current virtual time (nanoseconds by convention). *)
val now : t -> float

(** [schedule t delay f] fires [f] at [now t +. delay].  Events with equal
    times fire in scheduling order. *)
val schedule : t -> float -> (unit -> unit) -> unit

(** Run events until the queue drains or the clock passes [until]; the
    clock ends at [max now until]. *)
val run : t -> until:float -> unit

(** Deterministic uniform draw in [0, 1). *)
val random : t -> float
