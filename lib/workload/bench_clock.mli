(** Timing for the benchmark harness: wall clock plus the virtual latency
    injected by a region's fence profile, so emulated STT-RAM/PCM costs
    are reported deterministically. *)

val now_ns : unit -> float

(** Elapsed nanoseconds of [f ()], including the region's virtual
    delays. *)
val time_ns : ?region:Pmem.Region.t -> (unit -> unit) -> float

(** Mean cost of one call over [ops] iterations. *)
val ns_per_op : ?region:Pmem.Region.t -> ops:int -> (unit -> unit) -> float

(** [runs] measurements of {!ns_per_op}, fastest first (a row's
    median, min and max). *)
val sorted_ns_per_op :
  ?region:Pmem.Region.t -> ?runs:int -> ops:int -> (unit -> unit) -> float list

(** Median of [runs] measurements of {!ns_per_op} (the paper reports the
    median of 5 runs). *)
val median_ns_per_op :
  ?region:Pmem.Region.t -> ?runs:int -> ops:int -> (unit -> unit) -> float
