(* Reader-preference reader-writer lock, modelling the
   std::shared_timed_mutex the paper's evaluation wraps around PMDK
   (§6.1): readers never defer to waiting writers, so with enough
   concurrent readers a writer can starve (visible in Figure 7). *)

type t = {
  readers : int Atomic.t;
  writer : bool Atomic.t;
}

let create () = { readers = Atomic.make 0; writer = Atomic.make false }

let read_lock t =
  let rec attempt () =
    Atomic.incr t.readers;
    if Atomic.get t.writer then begin
      (* a writer already holds the lock: back out and wait for it, but do
         not yield to merely-waiting writers (reader preference) *)
      Atomic.decr t.readers;
      while Atomic.get t.writer do
        Domain.cpu_relax ()
      done;
      attempt ()
    end
  in
  attempt ()

let read_unlock t = Atomic.decr t.readers

let write_lock t =
  while not (Atomic.compare_and_set t.writer false true) do
    Domain.cpu_relax ()
  done;
  while Atomic.get t.readers > 0 do
    Domain.cpu_relax ()
  done

let write_unlock t = Atomic.set t.writer false
