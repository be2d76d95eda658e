(* The four client workloads and their seeded input streams.

   Every workload mixes point gets with one kind of client write, over a
   differently sized and shaped key space, so that each one does most of
   its work in one layer of the stack.  Keys are 16 bytes and values 100
   bytes throughout.  The seed fixes the key strings, the value pool and
   the operation stream; nothing in the timed loop draws randomness. *)

(* What a workload's write is. *)
type shape =
  | Kv       (* put overwriting a preloaded key *)
  | Ingest   (* put inserting a fresh key; gets read what was inserted *)
  | Bank     (* write_batch moving an amount between two accounts *)

type spec = {
  name : string;
  shape : shape;
  keys : int;          (* preloaded keys: Zipf 0.99 for Kv, else uniform *)
  get_pm : int;        (* per-mille share of gets; writes take the rest *)
  ack : Kv.Group_commit.ack_mode;  (* the drain window is the default, 32 *)
  ops_per_s : int;     (* a run of [s] seconds issues [ops_per_s * s] ops *)
}

(* A run's ops are split over this many rounds, each on a fresh store:
   the ingest store grows with every insert, and medians over rounds
   steady the timings. *)
let rounds = 6

let shards = 4
let key_bytes = 16
let value_bytes = 100

(* Why each workload exists is recorded in BENCHMARK.json and README.md. *)
let all =
  [ (* YCSB-A, large store: every put frees the old value *)
    { name = "update_heavy"; shape = Kv; keys = 65_536; get_pm = 500;
      ack = Kv.Group_commit.Sync; ops_per_s = 8_000 };
    (* YCSB-B, store fits L2: the read path *)
    { name = "read_mostly"; shape = Kv; keys = 4_096; get_pm = 950;
      ack = Kv.Group_commit.Sync; ops_per_s = 650_000 };
    (* fresh-key inserts under buffered durability: group commit *)
    { name = "ingest"; shape = Ingest; keys = 4_096; get_pm = 300;
      ack = Kv.Group_commit.Batch_sync { txs = 16; bytes = 65_536 };
      ops_per_s = 45_000 };
    (* bank transfers: the cross-shard commit protocol *)
    { name = "cross_txn"; shape = Bank; keys = 4_096; get_pm = 600;
      ack = Kv.Group_commit.Sync; ops_per_s = 18_000 } ]

let find name = List.find_opt (fun w -> w.name = name) all

(* ---- seeded inputs ---- *)

(* 32-bit avalanche of (seed, id): decorrelates key bytes across seeds *)
let mix seed id =
  let x = ref ((seed * 0x2545F491) lxor (id * 0x9E3779B1)) in
  x := (!x lxor (!x lsr 15)) * 0x2C1B3C6D;
  x := (!x lxor (!x lsr 12)) * 0x297A2D39;
  (!x lxor (!x lsr 15)) land 0xFFFF_FFFF

(* Key [id] of a seed: unique per id (the low half is the id itself). *)
let key seed id = Printf.sprintf "%08x%08x" (mix seed id) id

let pool_size = 256

let value_pool seed =
  let rng = Random.State.make [| seed; 0x7a1 |] in
  Array.init pool_size (fun _ ->
      String.init value_bytes (fun _ -> Char.chr (97 + Random.State.int rng 26)))

(* Bank balances ride in ordinary 100-byte values: 20 digits, then pad. *)
let balance_pad = String.make (value_bytes - 20) '.'
let balance_value b = Printf.sprintf "%020d%s" b balance_pad
let balance_of v = int_of_string (String.sub v 0 20)
let initial_balance = 1_000_000

(* YCSB's Zipfian generator (Gray et al.) over ranks [0, n). *)
type zipf = { n : int; theta : float; zetan : float; alpha : float; eta : float }

let zipf n theta =
  let zeta k =
    let s = ref 0. in
    for i = 1 to k do s := !s +. (1. /. (float_of_int i ** theta)) done;
    !s
  in
  let zetan = zeta n in
  { n; theta; zetan; alpha = 1. /. (1. -. theta);
    eta = (1. -. ((2. /. float_of_int n) ** (1. -. theta))) /. (1. -. (zeta 2 /. zetan)) }

let zipf_rank z u =
  let uz = u *. z.zetan in
  if uz < 1. then 0
  else if uz < 1. +. (0.5 ** z.theta) then 1
  else
    min (z.n - 1)
      (int_of_float (float_of_int z.n *. ((z.eta *. u) -. z.eta +. 1.) ** z.alpha))

(* Rank -> key id: a fixed odd-multiplier bijection on [0, n) (n a power
   of two), so the hot keys sit at the same spread of heap positions on
   every seed instead of wherever the preload happened to put rank 0. *)
let scramble n rank = (rank * 0x5851F42D) land (n - 1)

(* ---- operation stream ---- *)

let op_get = 0
let op_write = 1

(* One block of operations: kind, key id, second key id (transfers; -1
   otherwise), value-pool index (transfers: the amount). *)
type block = {
  mutable len : int;
  kind : int array;
  k1 : int array;
  k2 : int array;
  v : int array;
}

let block_size = 1024

let make_block () =
  { len = 0; kind = Array.make block_size 0; k1 = Array.make block_size 0;
    k2 = Array.make block_size (-1); v = Array.make block_size 0 }

type gen = {
  spec : spec;
  rng : Random.State.t;
  z : zipf option;
  mutable next_fresh : int;   (* ingest: next unused key id *)
  mutable remaining : int;
}

(* The stream of [ops] operations of one round of a run. *)
let generator spec ~seed ~round ~ops =
  if spec.shape = Kv && spec.keys land (spec.keys - 1) <> 0 then
    invalid_arg "Workload.generator: Zipf key counts must be powers of two";
  { spec; rng = Random.State.make [| seed; round; 0x0b5 |];
    z = (if spec.shape = Kv then Some (zipf spec.keys 0.99) else None);
    next_fresh = spec.keys; remaining = ops }

(* Key ids a round can touch: ingest inserts at most one per op. *)
let key_space spec ~ops =
  match spec.shape with Ingest -> spec.keys + ops | _ -> spec.keys

(* Keys a round is expected to end with, for sizing regions (ingest: its
   write share of [ops], with margin). *)
let expected_keys spec ~ops =
  match spec.shape with
  | Ingest -> spec.keys + (ops * (1000 - spec.get_pm) / 1000 * 21 / 20) + 1024
  | _ -> spec.keys

let pick g =
  match g.z with
  | Some z -> scramble g.spec.keys (zipf_rank z (Random.State.float g.rng 1.))
  | None -> Random.State.int g.rng g.spec.keys

let rec pick_other g a = let b = pick g in if b = a then pick_other g a else b

(* Fill [b] with the next ops of the stream; false once it is exhausted. *)
let next_block g b =
  let n = min block_size g.remaining in
  g.remaining <- g.remaining - n;
  b.len <- n;
  (* ingest gets read keys inserted before this block *)
  let inserted = g.next_fresh in
  for i = 0 to n - 1 do
    let get = Random.State.int g.rng 1000 < g.spec.get_pm in
    b.kind.(i) <- (if get then op_get else op_write);
    b.v.(i) <- Random.State.int g.rng pool_size;
    b.k2.(i) <- -1;
    match g.spec.shape with
    | Ingest when get -> b.k1.(i) <- Random.State.int g.rng inserted
    | Ingest ->
      b.k1.(i) <- g.next_fresh;
      g.next_fresh <- g.next_fresh + 1
    | Bank when not get ->
      let a = pick g in
      b.k1.(i) <- a;
      b.k2.(i) <- pick_other g a;
      b.v.(i) <- 1 + Random.State.int g.rng 100
    | Kv | Bank -> b.k1.(i) <- pick g
  done;
  n > 0
