(* Log-bucketed latency histogram over non-negative integer samples
   (nanoseconds here).  Values below [sub] get one exact bucket each;
   above, every octave [2^e, 2^(e+1)) is cut into [sub] equal buckets, so
   a bucket is never wider than 1/[sub] = 1/64 of its lower bound, and a
   percentile lands in the exact sample's bucket, so it is within 1/64 of
   the exact nearest-rank answer.  Recording is a few shifts and an array
   increment — no allocation, no sample array. *)

let sub_bits = 6
let sub = 1 lsl sub_bits

(* octaves e = sub_bits .. 62 after the exact range *)
let nbuckets = sub + ((62 - sub_bits + 1) * sub)

type t = { counts : int array; mutable n : int }

let create () = { counts = Array.make nbuckets 0; n = 0 }
let count t = t.n

(* floor (log2 v) for v >= 1, read off the exponent of [float v] (the
   conversion can round up to the next power of two; that is undone) *)
let log2 v =
  let e =
    Int64.to_int
      (Int64.shift_right_logical (Int64.bits_of_float (float_of_int v)) 52)
    - 1023
  in
  if v lsr e = 0 then e - 1 else e

let index v =
  if v < sub then max v 0
  else
    let e = log2 v in
    sub + ((e - sub_bits) * sub) + ((v lsr (e - sub_bits)) - sub)

(* [lo, hi) covered by bucket [i] *)
let bounds i =
  if i < sub then (i, i + 1)
  else
    let e = ((i - sub) / sub) + sub_bits in
    let width = 1 lsl (e - sub_bits) in
    let lo = (1 lsl e) + (((i - sub) mod sub) * width) in
    (lo, lo + width)

let add t v =
  let i = index v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.n <- t.n + 1

(* Nearest-rank percentile ([p] in [0, 1]): the ceil(p n)-th smallest
   sample, placed inside its bucket by linear interpolation over the
   bucket's samples (so the answer moves with the data, not in bucket
   steps).  [nan] when empty. *)
let percentile t p =
  if t.n = 0 then nan
  else begin
    let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int t.n))) in
    let rec find i before =
      let c = t.counts.(i) in
      if before + c >= rank || i = nbuckets - 1 then (i, before)
      else find (i + 1) (before + c)
    in
    let i, before = find 0 0 in
    let lo, hi = bounds i in
    let within = float_of_int (rank - before) -. 0.5 in
    float_of_int lo
    +. (float_of_int (hi - lo - 1) *. within /. float_of_int t.counts.(i))
  end

(* [q]-quantile of a list of values, interpolating between neighbours
   ([q] = 0.5 is the median); [nan] when empty. *)
let quantile l q =
  match List.sort compare l with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let x = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float x in
    if i + 1 >= Array.length a then a.(i)
    else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median l = quantile l 0.5

(* ---- windowed percentiles ----

   The samples of a run, also cut into consecutive windows of [size]
   samples, each keeping its own percentiles.  Interference from the rest
   of a shared machine only ever adds latency, and it comes in bursts: a
   whole-run percentile moves with every burst, while the lower quartile
   over windows of a window's percentile tracks the code's own cost.
   That is what the benchmark reports.  With no window filled yet, the
   whole-run percentile stands in. *)

type windowed = {
  all : t;                           (* every sample *)
  cur : t;                           (* the open window *)
  size : int;
  ps : float array;                  (* percentiles kept per window *)
  mutable closed : float array list; (* one entry per filled window *)
}

let windowed ~size ps = { all = create (); cur = create (); size; ps; closed = [] }

let add_windowed w v =
  add w.all v;
  add w.cur v;
  if w.cur.n >= w.size then begin
    w.closed <- Array.map (percentile w.cur) w.ps :: w.closed;
    Array.fill w.cur.counts 0 nbuckets 0;
    w.cur.n <- 0
  end

let windowed_percentile w p =
  match w.closed with
  | [] -> percentile w.all p
  | closed ->
    let rec find i =
      if i = Array.length w.ps then invalid_arg "Hist.windowed_percentile"
      else if w.ps.(i) = p then i
      else find (i + 1)
    in
    let i = find 0 in
    quantile (List.map (fun a -> a.(i)) closed) 0.25

(* The highest of the usual reporting percentiles that still has at least
   ten samples beyond it, as (label, p). *)
let highest_supported t =
  let candidates =
    [ ("p99.999", 0.99999); ("p99.99", 0.9999); ("p99.9", 0.999);
      ("p99", 0.99); ("p90", 0.9); ("p50", 0.5) ]
  in
  List.find_opt
    (fun (_, p) -> float_of_int t.n *. (1. -. p) >= 10.)
    candidates
