(* C-RW-WP reader-writer lock (Calciu et al.), writer-preference flavour:
   a reader that sees the writer lock taken (or being taken) departs and
   waits, so writers are never starved by a stream of readers.  Writers
   serialize on a spinlock and then wait for the read indicator to drain. *)

type t = {
  wlock : Spinlock.t;
  ri : Read_indicator.t;
}

let create () = { wlock = Spinlock.create (); ri = Read_indicator.create () }

let rec read_lock t tid =
  Read_indicator.arrive t.ri tid;
  if Spinlock.is_locked t.wlock then begin
    (* a writer is active or waiting: step aside (writer preference) *)
    Read_indicator.depart t.ri tid;
    while Spinlock.is_locked t.wlock do
      Domain.cpu_relax ()
    done;
    read_lock t tid
  end

let read_unlock t tid = Read_indicator.depart t.ri tid

let write_lock t =
  Spinlock.lock t.wlock;
  Read_indicator.wait_empty t.ri

let try_write_lock t =
  if Spinlock.try_lock t.wlock then begin
    Read_indicator.wait_empty t.ri;
    true
  end
  else false

let write_unlock t = Spinlock.unlock t.wlock
