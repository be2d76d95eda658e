(* The C-RW-WP "read indicator": one entry statically assigned per thread
   (§5.2).  The paper pads each entry over two cache lines to avoid false
   sharing; in OCaml each [Atomic.t] is its own heap block, so entries never
   share a line.  Entries are counters, which makes reader arrival
   re-entrant (useful for nested read-only sections).

   [hi] is the registration watermark (as in [Flat_combining]): 1 + the
   highest slot that ever arrived here.  A drain scans only [0, hi), so a
   writer pays for the readers that registered, not for [Tid.max_threads].
   An arrival raises [hi] before it increments its slot, and a drain reads
   [hi] before it reads the slots; every access is a sequentially
   consistent atomic, so a slot the drain does not scan belongs to a
   reader whose arrival follows the drain's read of [hi] — one that will
   then see whatever the writer did before draining (the writer lock, the
   Left-Right toggle).  CORRECTNESS §4 states the argument. *)

type t = { states : int Atomic.t array; hi : int Atomic.t }

let create () =
  { states = Array.init Tid.max_threads (fun _ -> Atomic.make 0);
    hi = Atomic.make 0 }

let arrive t tid =
  let slot = t.states.(tid) in
  Tid.cover t.hi tid;
  Atomic.incr slot

let depart t tid = Atomic.decr t.states.(tid)

let rec empty_from states hi i =
  i >= hi || (Atomic.get states.(i) = 0 && empty_from states hi (i + 1))

let is_empty t = empty_from t.states (Atomic.get t.hi) 0

let wait_empty t =
  while not (is_empty t) do
    Domain.cpu_relax ()
  done
