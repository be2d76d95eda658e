(* Per-(PTM, data-structure) benchmark operations and cost calibration.

   Every workload follows §6.2: an update operation is a removal followed
   by an insertion of a random existing key (two transactions), a read
   operation is two searches for random existing keys (two read-only
   transactions).  [update_batch] executes n update pairs inside one
   enclosing transaction — that is exactly what the flat-combining
   combiner does with a queue of n published updates, and it is how the
   batch cost model (fixed + n * work) is calibrated from real code. *)

type ops = {
  ds : string;
  ptm : string;
  region : Pmem.Region.t;
  read_pair : unit -> unit;
  update_pair : unit -> unit;
  update_batch : int -> unit;
}

(* measured costs, per *pair* (the unit threads execute in the DES) *)
type costs = {
  read_pair_ns : float;
  update_pair_ns : float;   (* one pair in its own transaction(s) *)
  pair_work_ns : float;     (* marginal cost of a pair inside a batch *)
  batch_fixed_ns : float;   (* per-transaction fixed cost *)
}

(* Population strategy (see each maker): the basic (full-copy) Romulus
   replicates the whole used span on every commit, so populating with one
   transaction per element would copy O(n^2) bytes — it gets a single
   enclosing transaction (one replication).  The log-based PTMs have
   bounded persistent logs, so they populate one transaction per
   element. *)

let make_list (module P : Common.PTM) ?fence ~keys ~region_size () =
  let r = Pmem.Region.create ?fence ~size:region_size () in
  let p = P.open_region r in
  let module L = Pds.Linked_list.Make (P) in
  let l = L.create p ~root:0 in
  let populate f = if P.name = "rom" then P.update_tx p f else f () in
  let rng = Workload.Keygen.create ~seed:42 () in
  (* distinct keys, shuffled insertion order *)
  populate (fun () ->
      for i = 0 to keys - 1 do
        ignore (L.add l (((i * 7919) mod keys * 2) + 1))
      done);
  let random_key () = ((Workload.Keygen.int rng keys * 7919) mod keys * 2) + 1 in
  let read_pair () =
    ignore (L.contains l (random_key ()));
    ignore (L.contains l (random_key ()))
  in
  let update_one () =
    let k = random_key () in
    ignore (L.remove l k);
    ignore (L.add l k)
  in
  let update_batch n =
    P.update_tx p (fun () ->
        for _ = 1 to n do
          update_one ()
        done)
  in
  { ds = "linked-list"; ptm = P.name; region = r; read_pair;
    update_pair = update_one; update_batch }

let make_hash_map (module P : Common.PTM) ?fence ~keys ~resizable
    ~initial_buckets ~value_bytes ~region_size () =
  let r = Pmem.Region.create ?fence ~size:region_size () in
  let p = P.open_region r in
  let module M = Pds.Hash_map.Make (P) in
  let m = M.create ~resizable ~initial_buckets p ~root:0 in
  let rng = Workload.Keygen.create ~seed:43 () in
  let payload = Workload.Keygen.fixed_value (max 8 value_bytes) in
  (* value = pointer to a payload blob when value_bytes > 8, else inline *)
  let alloc_value () =
    if value_bytes <= 8 then 7
    else begin
      let b = P.alloc p value_bytes in
      P.store_bytes p b payload;
      b
    end
  in
  let free_value v = if value_bytes > 8 then P.free p v in
  let populate f = if P.name = "rom" then P.update_tx p f else f () in
  populate (fun () ->
      for k = 0 to keys - 1 do
        P.update_tx p (fun () -> ignore (M.put m k (alloc_value ())))
      done);
  let random_key () = Workload.Keygen.int rng keys in
  let read_pair () =
    ignore (M.get m (random_key ()));
    ignore (M.get m (random_key ()))
  in
  (* removal then insertion, two transactions (§6.2); the value blob is
     freed with the removal and re-allocated with the insertion *)
  let update_one () =
    let k = random_key () in
    P.update_tx p (fun () ->
        match M.get m k with
        | Some v ->
          ignore (M.remove m k);
          free_value v
        | None -> ());
    P.update_tx p (fun () -> ignore (M.put m k (alloc_value ())))
  in
  let update_batch n =
    P.update_tx p (fun () ->
        for _ = 1 to n do
          update_one ()
        done)
  in
  { ds = (if resizable then "hash-map" else "hash-map-fixed");
    ptm = P.name; region = r; read_pair; update_pair = update_one;
    update_batch }

let make_tree (module P : Common.PTM) ?fence ~keys ~region_size () =
  let r = Pmem.Region.create ?fence ~size:region_size () in
  let p = P.open_region r in
  let module T = Pds.Rb_tree.Make (P) in
  let t = T.create p ~root:0 in
  let populate f = if P.name = "rom" then P.update_tx p f else f () in
  let rng = Workload.Keygen.create ~seed:44 () in
  populate (fun () ->
      for i = 0 to keys - 1 do
        ignore (T.put t ((i * 7919) mod keys) i)
      done);
  let random_key () = Workload.Keygen.int rng keys in
  let read_pair () =
    ignore (T.get t (random_key ()));
    ignore (T.get t (random_key ()))
  in
  let update_one () =
    let k = random_key () in
    ignore (T.remove t k);
    ignore (T.put t k k)
  in
  let update_batch n =
    P.update_tx p (fun () ->
        for _ = 1 to n do
          update_one ()
        done)
  in
  { ds = "rb-tree"; ptm = P.name; region = r; read_pair;
    update_pair = update_one; update_batch }

(* The swap-array microbenchmark of Fig. 9 and the log-vs-copy ablation:
   an array of [words] integers behind root 0, populated in 1,024-word
   transactions (the STM baseline's persistent log and the undo log are
   bounded), and a transaction that swaps [swaps] random pairs drawn from
   [seed].  Returns the region and that transaction; each caller warms
   it up and times it its own way. *)
let swap_array (module P : Common.PTM) ~fence ~size ~words ~seed ~swaps =
  let r = Pmem.Region.create ~fence ~size () in
  let p = P.open_region r in
  let arr =
    P.update_tx p (fun () ->
        let a = P.alloc p (8 * words) in
        P.set_root p 0 a;
        a)
  in
  let chunk = 1_024 in
  let i = ref 0 in
  while !i < words do
    let stop = min words (!i + chunk) in
    let start = !i in
    P.update_tx p (fun () ->
        for j = start to stop - 1 do
          P.store p (arr + (8 * j)) j
        done);
    i := stop
  done;
  let rng = Workload.Keygen.create ~seed () in
  let tx () =
    P.update_tx p (fun () ->
        for _ = 1 to swaps do
          let i = arr + (8 * Workload.Keygen.int rng words) in
          let j = arr + (8 * Workload.Keygen.int rng words) in
          let a = P.load p i and b = P.load p j in
          P.store p i b;
          P.store p j a
        done)
  in
  (r, tx)

(* ---- calibration ---- *)

let calibrate ?(ops = 2_000) t =
  (* warm up, then measure medians on a quiet heap *)
  for _ = 1 to 50 do
    t.update_pair ();
    t.read_pair ()
  done;
  Gc.full_major ();
  let median f ~ops =
    Workload.Bench_clock.median_ns_per_op ~region:t.region ~runs:3 ~ops f
  in
  let read_pair_ns = median t.read_pair ~ops in
  let update_pair_ns = median t.update_pair ~ops in
  let batches = max 8 (ops / 16) in
  let batch1 = median (fun () -> t.update_batch 1) ~ops:batches in
  let batch16 =
    median (fun () -> t.update_batch 16) ~ops:(max 4 (batches / 16))
  in
  let pair_work_ns =
    let w = (batch16 -. batch1) /. 15. in
    (* batching can only help; clamp measurement noise *)
    if w <= 0. || w > update_pair_ns then update_pair_ns
    else w
  in
  let batch_fixed_ns = max 0. (batch1 -. pair_work_ns) in
  { read_pair_ns; update_pair_ns; pair_work_ns; batch_fixed_ns }

(* Between operations, a benchmark thread spends time in its own loop
   (key generation, result checks): model it as a fraction of the read
   cost.  This is what lets a writer slip into a reader-preference lock
   when few readers run, while starving once many do (Figure 7). *)
let think_of c = Float.max Common.think_ns (0.5 *. c.read_pair_ns)

(* Serialized cost of one RMW on a contended cache line (the PMDK
   wrapper's shared reader counter). *)
let rw_atomic_ns = 40.

(* Mnemosyne persists its redo log into per-thread log areas, so durable
   commits proceed in parallel; the serialized resource that remains is
   the global version clock (one contended RMW per commit).  Our port
   simplifies to one shared log, but the model follows the paper's
   system. *)
let stm_commit_serial_ns = 100.

(* The synchronization model each PTM uses, with its DES costs from a
   calibration: the flat-combining PTMs (rom, romL, romLR) pay a batch's
   fixed cost once plus each pair's marginal work, the others one
   transaction per pair.  [conflict] is the workload's (update, read)
   STM conflict probability pair (DESIGN.md). *)
let model ~ptm ~conflict:(conflict_p, read_conflict_p) c =
  let open Simsched.Sync_model in
  let costs ~work ~fixed =
    { read_ns = c.read_pair_ns; update_work_ns = work; batch_fixed_ns = fixed;
      think_ns = think_of c }
  in
  let combining = costs ~work:c.pair_work_ns ~fixed:c.batch_fixed_ns
  and single_tx = costs ~work:c.update_pair_ns ~fixed:0. in
  match ptm with
  | "rom" | "romL" -> (Fc_crwwp, combining)
  | "romLR" -> (Fc_left_right, combining)
  | "pmdk" -> (Rw_reader_pref { atomic_ns = rw_atomic_ns }, single_tx)
  | "mne" ->
    ( Stm
        { conflict_p; read_conflict_p;
          commit_serial_ns = stm_commit_serial_ns },
      single_tx )
  | other -> failwith ("no sync model for " ^ other)

(* The DES thread axis of Figs. 4-7: [readers] and [writers] threads of
   [ptm] under [calib], as (read TX/s, update TX/s) — one op-pair is two
   transactions (§6.2). *)
let simulate ~scale ~seed ~ptm ~conflict calib ~readers ~writers =
  let model, costs = model ~ptm ~conflict calib in
  let r =
    Simsched.Sync_model.run
      { Simsched.Sync_model.model; costs; readers; writers;
        duration_ns = Common.sim_duration_ns scale; seed }
  in
  ( 2. *. Simsched.Sync_model.reads_per_sec r,
    2. *. Simsched.Sync_model.updates_per_sec r )
