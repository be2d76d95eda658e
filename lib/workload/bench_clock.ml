(* Timing helper for the benchmark harness: wall-clock time plus the
   virtual latency injected by the region's fence profile (and any disk
   simulation), so that runs under emulated STT-RAM/PCM report the
   latency they would have on that medium while remaining deterministic
   and fast. *)

(* monotonic: a wall-clock step (NTP) cannot land inside a measurement *)
let now_ns () = Int64.to_float (Monotonic_clock.now ())

(* [time_ns ?region f] runs [f ()] and returns elapsed nanoseconds,
   including the virtual delay the region accumulated during the call. *)
let time_ns ?region f =
  let delay_before =
    match region with
    | Some r -> (Pmem.Region.stats r).Pmem.Stats.delay_ns
    | None -> 0
  in
  let t0 = now_ns () in
  f ();
  let wall = now_ns () -. t0 in
  let delay_after =
    match region with
    | Some r -> (Pmem.Region.stats r).Pmem.Stats.delay_ns
    | None -> 0
  in
  wall +. float_of_int (delay_after - delay_before)

(* [ns_per_op ?region ~ops f] runs [f] [ops] times and returns the mean
   cost of one call in nanoseconds. *)
let ns_per_op ?region ~ops f =
  if ops <= 0 then invalid_arg "Bench_clock.ns_per_op";
  let total = time_ns ?region (fun () -> for _ = 1 to ops do f () done) in
  total /. float_of_int ops

(* median of [runs] measurements (the paper reports the median of 5) *)
let median_ns_per_op ?region ?(runs = 3) ~ops f =
  let samples = List.init runs (fun _ -> ns_per_op ?region ~ops f) in
  let sorted = List.sort compare samples in
  List.nth sorted (runs / 2)
