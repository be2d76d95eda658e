(* Flat combining (Hendler et al.): update operations publish a closure in a
   per-thread array; whichever thread acquires the combiner lock executes
   every published operation in one batch.  The paper couples this with the
   C-RW-WP writer lock so that one writer-lock acquisition (and one durable
   transaction, hence one set of persistence fences) covers a whole batch of
   update transactions (§5.2).

   The batch runner is handed to the caller-supplied [exec] so that the PTM
   can wrap it in begin/end-transaction: requests are only marked done after
   [exec] returns, i.e. after the batch is durably committed — this is what
   gives durable linearizability to the helped operations. *)

type state =
  | Empty
  | Request of (unit -> unit)
  | Done of exn option

type t = {
  slots : state Atomic.t array;
  hi : int Atomic.t;        (* 1 + highest tid that ever published here *)
  (* published-but-not-yet-collected requests.  Incremented before the
     slot is set to [Request] and decremented by the combiner as it
     collects, so it never under-counts the visible requests: a scan may
     stop as soon as it has collected [pending] of them instead of
     walking every empty slot up to the watermark. *)
  pending : int Atomic.t;
  lock : Spinlock.t;
  mutable combines : int;   (* batches executed (stats) *)
  mutable combined : int;   (* total requests executed (stats) *)
  mutable scanned : int;    (* slots examined across all batches (stats) *)
}

let create () =
  { slots = Array.init Tid.max_threads (fun _ -> Atomic.make Empty);
    hi = Atomic.make 0;
    pending = Atomic.make 0;
    lock = Spinlock.create ();
    combines = 0;
    combined = 0;
    scanned = 0 }

(* Rounds: run the pending requests inside one [exec] call.  A request
   that raises must not have its partial effects committed with the rest
   of the batch, so the exception propagates out of [run_all] and [exec]
   is expected to discard the whole attempt (the PTM aborts the
   transaction).  The raiser is then answered with the exception that
   escaped [exec] and the survivors retry in a fresh [exec].  Every
   round removes at least one request, so the loop terminates even when
   every request raises; an [exec] failure with no identifiable raiser
   (begin/commit machinery, e.g. a simulated crash) answers the whole
   batch — no requester is ever left waiting.

   Exported on its own because the group-commit front-end reuses the
   exact same per-round raiser rule one level up: there the "requests"
   are whole logical transactions buffered into one coalesced engine
   transaction, and a poisonous logical tx must likewise fail alone
   while the survivors retry as a new group.  Requests are identified by
   physical identity of the list cells, so keys need not be distinct. *)
let run_rounds pending ~exec ~answer =
  let rec rounds pending =
    match pending with
    | [] -> ()
    | _ ->
      let raiser = ref None in
      let run_all () =
        List.iter (fun ((_, f) as p) -> raiser := Some p; f ()) pending;
        raiser := None
      in
      (match exec run_all with
       | () -> List.iter (fun (k, _) -> answer k None) pending
       | exception e ->
         (match !raiser with
          | None -> List.iter (fun (k, _) -> answer k (Some e)) pending
          | Some ((k, _) as p) ->
            answer k (Some e);
            rounds (List.filter (fun q -> q != p) pending)))
  in
  rounds pending

let serve_pending t ~exec =
  (* Only slots below the registration watermark can hold requests, and
     at most [pending] of them do: stop as soon as that many have been
     collected instead of walking the remaining empty slots.  A request
     published after its slot was passed (or after the early exit) is
     simply left for the next batch — its owner self-combines once this
     round releases the lock, exactly as with a full scan. *)
  let limit = Atomic.get t.hi in
  let batch = ref [] in
  let examined = ref 0 in
  let i = ref 0 in
  while !i < limit && Atomic.get t.pending > 0 do
    incr examined;
    (match Atomic.get t.slots.(!i) with
     | Request f ->
       batch := (!i, f) :: !batch;
       Atomic.decr t.pending
     | Empty | Done _ -> ());
    incr i
  done;
  let batch = ref (List.rev !batch) in
  t.scanned <- t.scanned + !examined;
  t.combines <- t.combines + 1;
  t.combined <- t.combined + List.length !batch;
  run_rounds !batch ~exec
    ~answer:(fun i r -> Atomic.set t.slots.(i) (Done r))

(* The combiner lock is released through [match … with exception], not
   [Fun.protect], so a round allocates no closures for it. *)
let combine t ~exec =
  match serve_pending t ~exec with
  | () -> Spinlock.unlock t.lock
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    Spinlock.unlock t.lock;
    Printexc.raise_with_backtrace e bt

let apply t f ~exec =
  let tid = Tid.current () in
  let slot = t.slots.(tid) in
  (* must complete before the request is published, so that no combiner
     can read a stale watermark that hides a visible request *)
  Tid.cover t.hi tid;
  (* incremented before the request becomes visible, so a combiner that
     sees the request has also seen the count (never under-counts) *)
  Atomic.incr t.pending;
  Atomic.set slot (Request f);
  let rec wait () =
    match Atomic.get slot with
    | Done r -> begin
        Atomic.set slot Empty;
        match r with Some e -> raise e | None -> ()
      end
    | Request _ ->
      if Spinlock.try_lock t.lock then combine t ~exec
      else Domain.cpu_relax ();
      wait ()
    | Empty -> assert false (* only the owner resets its slot to Empty *)
  in
  wait ()

let batches t = t.combines
let requests_served t = t.combined
let scan_length t = Atomic.get t.hi
let slots_scanned t = t.scanned
