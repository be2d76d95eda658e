(* TinySTM/TL2-style software transactional memory mechanics: a global
   version clock and a table of versioned write-locks striped over
   persistent-memory addresses.  Mnemosyne builds its durable transactions
   on TinySTM (§2); {!Redolog} composes this module with a persistent redo
   log the same way.

   A lock word encodes [version lsl 1 lor locked].  Readers sample the
   word before and after the data load and abort on any intervening change
   or on a version newer than their read timestamp. *)

exception Abort

(* The bounded-retry loops of the STM-based PTMs give up with this after
   exhausting their attempt budget: a typed, recoverable signal that the
   workload is livelocked, instead of spinning forever. *)
exception Contention_exhausted of { attempts : int }

type t = {
  clock : int Atomic.t;
  locks : int Atomic.t array;
  mask : int;
  mutable aborts : int; (* stats; racy, indicative only *)
}

(* One stripe per cache line of the guarded region, as a power of two of
   at most 2^16: the table is volatile, so its size moves no byte. *)
let create r =
  let lines = Pmem.Region.size r / Pmem.Region.line_size r in
  let rec pow2 n = if n >= lines || n = 1 lsl 16 then n else pow2 (2 * n) in
  let n = pow2 1 in
  { clock = Atomic.make 0;
    locks = Array.init n (fun _ -> Atomic.make 0);
    mask = n - 1;
    aborts = 0 }

(* Fibonacci-hash the word address onto a stripe. *)
let stripe t addr = (addr lsr 3) * 0x2545F4914F6CDD1D land t.mask

let now t = Atomic.get t.clock

let next_version t = Atomic.fetch_and_add t.clock 1 + 1

let read_word t idx = Atomic.get t.locks.(idx)

let is_locked word = word land 1 = 1

let version word = word asr 1

(* Try to lock stripe [idx]; returns the pre-lock version on success. *)
let try_acquire t idx =
  let w = Atomic.get t.locks.(idx) in
  if is_locked w then None
  else if Atomic.compare_and_set t.locks.(idx) w (w lor 1) then
    Some (version w)
  else None

(* Release a stripe, publishing [ver] as its new version. *)
let release t idx ~ver = Atomic.set t.locks.(idx) (ver lsl 1)

(* Release a stripe without changing its version (abort path). *)
let release_unchanged t idx ~prev_version =
  Atomic.set t.locks.(idx) (prev_version lsl 1)

let record_abort t = t.aborts <- t.aborts + 1

let aborts t = t.aborts

(* Forget all volatile state (simulated process restart). *)
let reset t =
  Atomic.set t.clock 0;
  Array.iter (fun l -> Atomic.set l 0) t.locks;
  t.aborts <- 0
