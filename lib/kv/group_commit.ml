(* Async group-commit front-end: per-shard submission queues drained in
   bounded windows, each window settled as one engine transaction (or
   one shared cross-shard intent) through the flat-combining per-round
   raiser rule.  See the .mli for the protocol and ack-mode semantics. *)

type ack_mode =
  | Sync
  | Batch_sync of { txs : int; bytes : int }
  | Async

let default_window = 32

(* One counter set per front-end (see [Counter_set] for its lifetime). *)
type counter =
  | Group_commits
  | Group_size_sum
  | Group_size_max
  | Fences_saved
  | Merged_intents
  | Async_acks
  | Flushes

module Counters = Counter_set.Make (struct
  type nonrec counter = counter

  let table =
    [ ( Group_commits, "group_commits",
        "engine rounds run for coalesced groups" );
      ( Group_size_sum, "group_size_sum",
        "logical transactions settled in those rounds" );
      ( Group_size_max, "group_size_max",
        "largest group settled (a high-water mark)" );
      ( Fences_saved, "fences_saved",
        "fence sequences avoided: settled txs - rounds" );
      ( Merged_intents, "merged_intents",
        "cross-shard batches that rode another's intent" );
      (Async_acks, "async_acks", "operations acknowledged at enqueue (Async)");
      (Flushes, "flushes", "explicit drain-everything flushes") ]
end)

module Make (P : Sharded_db.SHARD_PTM) = struct
  module SD = Sharded_db.Make (P)

  type db = SD.t

  type op =
    | Put of string * string
    | Delete of string
    | Batch of (db -> unit)

  (* [result = None] while queued; [Some None] settled ok; [Some (Some
     e)] settled with a failure. *)
  type entry = {
    seq : int;
    op : op;
    bytes : int;
    mutable result : exn option option;
  }

  type queue = {
    lock : Sync_prims.Spinlock.t;
    mutable entries : entry list;  (* newest first *)
    mutable n : int;
    mutable qbytes : int;
    mutable next_seq : int;
    mutable mark : int;            (* durability watermark *)
    mutable ackd : int;            (* acknowledgement mark *)
  }

  type t = {
    db : db;
    win : int;
    ack : ack_mode;
    qs : queue array;              (* shards queues ++ [cross queue] *)
    mutable deferred : (int * int * exn) list;  (* newest first *)
    counters : Counters.t;
  }

  let make_queue () =
    { lock = Sync_prims.Spinlock.create ();
      entries = []; n = 0; qbytes = 0; next_seq = 0; mark = 0; ackd = 0 }

  let attach ?(window = default_window) ?(ack = Sync) db =
    if window < 1 then
      invalid_arg "Group_commit.attach: window must be >= 1";
    (match ack with
     | Batch_sync { txs; bytes } when txs < 1 || bytes < 1 ->
       invalid_arg "Group_commit.attach: Batch_sync thresholds must be >= 1"
     | _ -> ());
    { db; win = window; ack;
      qs = Array.init (SD.shards db + 1) (fun _ -> make_queue ());
      deferred = []; counters = Counters.create () }

  let db t = t.db
  let counters t = t.counters
  let tick t c n = Counters.count t.counters c n
  let ack_mode t = t.ack
  let window t = t.win
  let queues t = Array.length t.qs
  let cross_q t = Array.length t.qs - 1

  let submitted t qi = t.qs.(qi).next_seq
  let watermark t qi = t.qs.(qi).mark
  let acked t qi = t.qs.(qi).ackd
  let pending t = Array.fold_left (fun acc q -> acc + q.n) 0 t.qs

  let failures t = List.rev t.deferred

  let locked q f =
    Sync_prims.Spinlock.lock q.lock;
    Fun.protect ~finally:(fun () -> Sync_prims.Spinlock.unlock q.lock) f

  let op_bytes = function
    | Put (k, v) -> String.length k + String.length v + 16
    | Delete k -> String.length k + 16
    (* a closure's payload is unknown until it runs; charge a nominal
       record so the bytes threshold still makes progress on a
       batch-only stream *)
    | Batch _ -> 256

  let enqueue t qi op =
    let q = t.qs.(qi) in
    locked q (fun () ->
        let e = { seq = q.next_seq; op; bytes = op_bytes op; result = None } in
        q.next_seq <- q.next_seq + 1;
        q.entries <- e :: q.entries;
        q.n <- q.n + 1;
        q.qbytes <- q.qbytes + e.bytes;
        e)

  (* Oldest [<= t.win] queued entries, removed from the queue.  The
     watermark only advances once they settle, so an observer never
     sees a settled suffix without its prefix. *)
  let take_window t q =
    locked q (fun () ->
        let keep = max 0 (q.n - t.win) in
        let rec split i acc = function
          | rest when i = 0 -> (acc, rest)
          | e :: rest -> split (i - 1) (e :: acc) rest
          | [] -> (acc, [])
        in
        (* entries is newest-first: keep the newest [keep], take the
           rest (oldest window) in oldest-first order *)
        let kept, taken = split keep [] q.entries in
        let taken_n = q.n - keep in
        q.entries <- List.rev kept;
        q.n <- keep;
        q.qbytes <- List.fold_left (fun a e -> a + e.bytes) 0 q.entries;
        (* [taken] came off the newest-first list: reverse it so the
           window runs in submission order *)
        (List.rev taken, taken_n))

  let apply_op b = function
    | Put (k, v) -> SD.put b k v
    | Delete k -> ignore (SD.delete b k)
    | Batch f -> f b

  (* Settle one taken window: run every entry inside one [SD.write_batch]
     (one engine tx on a single shard, one shared intent across shards)
     under the flat-combining raiser rule — a raising logical tx is
     answered alone, survivors retry as a fresh group.  Advances the
     watermark over the whole window (every entry is settled, with its
     value or its failure), meters the round, and
     re-raises a crash immediately: once the machine is down nothing
     later in this process can settle. *)
  let settle_window t ~qi taken taken_n =
    let q = t.qs.(qi) in
    let committed_rounds = ref 0 in
    let cur = ref t.db in
    let exec run =
      Sharded_db.with_overload_retry (fun () ->
          SD.write_batch t.db (fun b ->
              cur := b;
              Fun.protect ~finally:(fun () -> cur := t.db) run));
      incr committed_rounds
    in
    Sync_prims.Flat_combining.run_rounds
      (List.map (fun e -> (e, fun () -> apply_op !cur e.op)) taken)
      ~exec
      ~answer:(fun e r -> e.result <- Some r);
    let ok =
      List.fold_left
        (fun a e -> if e.result = Some None then a + 1 else a) 0 taken
    in
    locked q (fun () ->
        q.mark <- q.mark + taken_n;
        if q.ackd < q.mark then q.ackd <- q.mark);
    (* [ok] logical txs took [rounds] engine rounds (> 1 only when a
       raiser split the window); on the cross queue the difference also
       counts the batches that rode another batch's intent record *)
    if ok > 0 then begin
      let rounds = !committed_rounds in
      tick t Group_commits rounds;
      tick t Group_size_sum ok;
      Counters.raise_to t.counters Group_size_max ok;
      tick t Fences_saved (ok - rounds);
      if qi = cross_q t then tick t Merged_intents (max 0 (ok - rounds))
    end;
    (* Deferred-failure bookkeeping happens at the caller (it knows
       which entry, if any, belongs to a waiting Sync submitter). *)
    List.iter
      (fun e ->
        match e.result with
        | Some (Some Pmem.Region.Crash_point) -> raise Pmem.Region.Crash_point
        | _ -> ())
      taken

  (* Drain queue [qi] until it is empty (or, with [until], until that
     entry settles).  Failures of entries nobody is waiting on are
     deferred for {!flush}. *)
  let drain t ?until qi =
    let q = t.qs.(qi) in
    let settled_until () =
      match until with None -> q.n = 0 | Some e -> e.result <> None
    in
    while not (settled_until ()) do
      let taken, taken_n = take_window t q in
      if taken_n = 0 then
        (* nothing queued but [until] unsettled: impossible — the entry
           is either queued or settled *)
        assert (settled_until ())
      else begin
        let defer () =
          List.iter
            (fun e ->
              match e.result with
              | Some (Some exn) when (match until with
                                      | Some u -> u != e
                                      | None -> true) ->
                t.deferred <- (qi, e.seq, exn) :: t.deferred
              | _ -> ())
            taken
        in
        match settle_window t ~qi taken taken_n with
        | () -> defer ()
        | exception e -> defer (); raise e
      end
    done

  let drain_all t =
    (* cross queue first: whenever it is non-empty every shard queue is
       empty (the sequencing barrier), so this order is also FIFO *)
    drain t (cross_q t);
    Array.iteri (fun qi _ -> if qi <> cross_q t then drain t qi) t.qs

  (* The sequencing barrier (see .mli): single-key traffic flushes the
     cross queue ahead of itself; cross batches flush the shard queues
     ahead of themselves. *)
  let barrier_for_single t =
    if t.qs.(cross_q t).n > 0 then drain t (cross_q t)

  let barrier_for_cross t =
    Array.iteri (fun qi q -> if qi <> cross_q t && q.n > 0 then drain t qi)
      t.qs

  let over_threshold t q =
    match t.ack with
    | Sync -> true
    | Batch_sync { txs; bytes } ->
      q.n >= txs || q.qbytes >= bytes || q.n >= t.win
    | Async -> q.n >= t.win

  let raise_own e =
    match e.result with
    | Some (Some exn) -> raise exn
    | Some None -> ()
    | None -> assert false (* drain ~until settled it *)

  let submit t qi op =
    let q = t.qs.(qi) in
    let e = enqueue t qi op in
    match t.ack with
    | Sync ->
      drain t ~until:e qi;
      raise_own e
    | Batch_sync _ ->
      if over_threshold t q then drain t qi
    | Async ->
      (* acknowledged at enqueue: the ack mark runs ahead of the
         watermark, bounded by flush *)
      locked q (fun () -> if q.ackd <= e.seq then q.ackd <- e.seq + 1);
      tick t Async_acks 1;
      if over_threshold t q then drain t qi

  let put t k v =
    barrier_for_single t;
    submit t (SD.shard_of_key t.db k) (Put (k, v))

  let delete t k =
    barrier_for_single t;
    submit t (SD.shard_of_key t.db k) (Delete k)

  let write_batch t f =
    barrier_for_cross t;
    submit t (cross_q t) (Batch f)

  (* Read unlocked, as [barrier_for_single] reads the cross queue: a
     submitter always sees its own queued entries. *)
  let rec shard_queues_empty qs qi =
    qi < 0 || (qs.(qi).n = 0 && shard_queues_empty qs (qi - 1))

  (* the newest buffered op on [k], newest-first *)
  let rec buffered k = function
    | [] -> None
    | { op = Put (k', v); _ } :: _ when String.equal k k' -> Some (Some v)
    | { op = Delete k'; _ } :: _ when String.equal k k' -> Some None
    | _ :: rest -> buffered k rest

  (* Newest queued op on [k]'s shard queue wins (read-your-writes
     without forcing a drain); [Batch] closures never sit there — they
     live on the cross queue, drained by the barrier above.  With every
     shard queue empty the get goes straight to the store. *)
  let get t k =
    barrier_for_single t;
    if shard_queues_empty t.qs (cross_q t - 1) then SD.get t.db k
    else begin
      let q = t.qs.(SD.shard_of_key t.db k) in
      Sync_prims.Spinlock.lock q.lock;
      let b = buffered k q.entries in
      Sync_prims.Spinlock.unlock q.lock;
      match b with Some r -> r | None -> SD.get t.db k
    end

  let flush t =
    tick t Flushes 1;
    drain_all t;
    match List.rev t.deferred with
    | [] -> ()
    | (_, _, exn) :: _ ->
      t.deferred <- [];
      raise exn
end

module Default = Make (Romulus.Logged)
