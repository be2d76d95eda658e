(* Undo-log PTM in the style of PMDK's libpmemobj (§2, §6.1): a write-ahead
   undo log in persistent memory.  Before the first in-place store to an
   address within a transaction, the old value is persisted to the log
   (entry + count durable *before* the in-place modification — one
   persistence fence per logged store, which is why undo logs pay
   2 + 3*N_ranges fences in Table 1, and why PMDK looks competitive on a
   CLFLUSH machine where fences are free).

   Concurrency follows the paper's evaluation setup for PMDK: a global
   reader-preference reader-writer lock (std::shared_timed_mutex), no flat
   combining.

   Region layout:

     0        magic
     8        log_count    durable number of valid undo entries
     64       roots
     64+512   allocator arena ...
     size-L   undo log: entries of (address, old value), 16 bytes each

   The allocator runs over the same interposed store, so its metadata is
   undone together with user data — PMDK's allocator achieves the same
   effect with its internal redo logs. *)

open Sync_prims

let name = "pmdk"

let magic_value = 0x554E444F4C4F47 (* "UNDOLOG" *)

(* Failpoint: the undo entry is durable but the count that validates it
   is not — the WAL window the 3-fences-per-store schedule protects.  An
   injected exception here must abort the transaction: the entries
   logged so far roll every in-place store back. *)
let fp_entry_logged = Fault.site ~can_raise:true "pmdk.log.entry_logged"
let fp_rollback_applied = Fault.site "pmdk.recover.rollback_applied"

let o_magic = 0
let o_log_count = 8
let header_bytes = 64
let roots_bytes = 8 * Romulus.Ptm_intf.root_slots
let entry_bytes = 16

exception Log_full

(* The transactional context doubles as the allocator's memory: allocator
   metadata stores are interposed exactly like user stores. *)
module Ctx = struct
  type t = {
    r : Pmem.Region.t;
    log_base : int;
    log_capacity : int;
    mutable in_tx : bool;
    mutable log_len : int;
    logged : (int, unit) Hashtbl.t; (* addresses logged this tx *)
  }

  let load c off = Pmem.Region.load c.r off

  let entry_addr c i = c.log_base + (i * entry_bytes)

  (* Persist (addr, old value) and bump the durable count, fenced, before
     the caller modifies [addr] in place (the WAL rule). *)
  let log_old_value c addr =
    if not (Hashtbl.mem c.logged addr) then begin
      if c.log_len >= c.log_capacity then raise Log_full;
      Hashtbl.replace c.logged addr ();
      let e = entry_addr c c.log_len in
      (* the old value is snapshotted as raw bytes: blob data may use all
         64 bits of a word, which OCaml's 63-bit int cannot carry *)
      let old = Pmem.Region.load_bytes c.r addr 8 in
      Pmem.Region.store c.r e addr;
      Pmem.Region.store_bytes c.r (e + 8) old;
      Pmem.Region.pwb_range c.r e entry_bytes;
      (* entry durable strictly before the count that makes it valid:
         otherwise an evicted count line could expose a garbage entry *)
      Pmem.Region.pfence c.r;
      Fault.hit fp_entry_logged;
      c.log_len <- c.log_len + 1;
      Pmem.Region.store c.r o_log_count c.log_len;
      Pmem.Region.pwb c.r o_log_count;
      Pmem.Region.pfence c.r
    end

  let store c off v =
    if not c.in_tx then raise Romulus.Engine.Store_outside_transaction;
    log_old_value c off;
    Pmem.Region.store c.r off v;
    Pmem.Region.pwb c.r off
end

module Alloc = Palloc.Make (Ctx)

type t = {
  ctx : Ctx.t;
  arena : Alloc.t;
  lock : Rwlock_rp.t;
}

let region t = t.ctx.Ctx.r

(* ---- recovery ---- *)

(* Validate the durable log header before trusting a single entry of it:
   the WAL discipline (entry fenced before count, count fenced before the
   in-place store) means a legitimate crash can never produce a count
   outside the log or an entry pointing outside the region.  If the
   medium says otherwise, it is corrupt — refuse, do not "roll back"
   through garbage addresses. *)
let validate_log r ~log_base ~log_capacity =
  let size = Pmem.Region.size r in
  let count = Pmem.Region.load r o_log_count in
  if count < 0 || count > log_capacity then
    raise
      (Romulus.Engine.Recovery_error
         (Printf.sprintf
            "Undolog.recover: log count %d outside [0, %d]" count
            log_capacity));
  for i = 0 to count - 1 do
    let e = log_base + (i * entry_bytes) in
    let addr = Pmem.Region.load r e in
    if addr < 0 || addr > size - 8 then
      raise
        (Romulus.Engine.Recovery_error
           (Printf.sprintf
              "Undolog.recover: entry %d undoes address %d outside region \
               of %d bytes"
              i addr size))
  done;
  count

let rollback r ~log_base ~log_capacity =
  let count = validate_log r ~log_base ~log_capacity in
  if count > 0 then begin
    (* apply undo entries in reverse *)
    for i = count - 1 downto 0 do
      let e = log_base + (i * entry_bytes) in
      let addr = Pmem.Region.load r e in
      let old = Pmem.Region.load_bytes r (e + 8) 8 in
      Pmem.Region.store_bytes r addr old;
      Pmem.Region.pwb r addr
    done;
    Fault.hit fp_rollback_applied;
    Pmem.Region.pfence r;
    Pmem.Region.store r o_log_count 0;
    Pmem.Region.pwb r o_log_count;
    Pmem.Region.pfence r
  end

(* ---- open/format ---- *)

let layout r =
  let size = Pmem.Region.size r in
  let log_bytes = max 4096 (size / 8) in
  let log_base = size - log_bytes in
  let arena_base = header_bytes + roots_bytes in
  if log_base - arena_base < Palloc.meta_bytes + 4096 then
    invalid_arg "Undolog: region too small";
  (arena_base, log_base, log_bytes / entry_bytes)

let open_region r =
  let arena_base, log_base, log_capacity = layout r in
  let ctx =
    { Ctx.r; log_base; log_capacity; in_tx = false; log_len = 0;
      logged = Hashtbl.create 64 }
  in
  let magic = Pmem.Region.load r o_magic in
  if magic <> 0 && magic <> magic_value then
    raise
      (Romulus.Engine.Recovery_error
         (Printf.sprintf "Undolog.open: unrecognized magic %#x" magic));
  if magic = magic_value then begin
    rollback r ~log_base ~log_capacity;
    { ctx; arena = Alloc.attach ctx ~base:arena_base;
      lock = Rwlock_rp.create () }
  end
  else begin
    (* format: run the initialization as one logged transaction, then
       retire the log and publish the magic last *)
    ctx.Ctx.in_tx <- true;
    Pmem.Region.store r o_log_count 0;
    let arena = Alloc.init ctx ~base:arena_base ~size:(log_base - arena_base) in
    ctx.Ctx.in_tx <- false;
    ctx.Ctx.log_len <- 0;
    Hashtbl.reset ctx.Ctx.logged;
    Pmem.Region.store r o_log_count 0;
    Pmem.Region.pwb_range r 0 log_base;
    Pmem.Region.pfence r;
    Pmem.Region.store r o_magic magic_value;
    Pmem.Region.pwb r o_magic;
    Pmem.Region.pfence r;
    { ctx; arena; lock = Rwlock_rp.create () }
  end

let recover t =
  t.ctx.Ctx.in_tx <- false;
  Hashtbl.reset t.ctx.Ctx.logged;
  rollback t.ctx.Ctx.r ~log_base:t.ctx.Ctx.log_base
    ~log_capacity:t.ctx.Ctx.log_capacity;
  t.ctx.Ctx.log_len <- 0

(* ---- transactions ---- *)

let begin_tx t =
  t.ctx.Ctx.in_tx <- true;
  t.ctx.Ctx.log_len <- 0;
  Hashtbl.reset t.ctx.Ctx.logged

let end_tx t =
  let r = t.ctx.Ctx.r in
  (* make all in-place stores durable, then retire the log *)
  Pmem.Region.pfence r;
  Pmem.Region.psync r;
  Pmem.Region.store r o_log_count 0;
  Pmem.Region.pwb r o_log_count;
  Pmem.Region.pfence r;
  t.ctx.Ctx.in_tx <- false;
  t.ctx.Ctx.log_len <- 0;
  Hashtbl.reset t.ctx.Ctx.logged

(* Abort: undo the in-place stores from the log (PMDK's tx_abort). *)
let abort_tx t =
  rollback t.ctx.Ctx.r ~log_base:t.ctx.Ctx.log_base
    ~log_capacity:t.ctx.Ctx.log_capacity;
  t.ctx.Ctx.in_tx <- false;
  t.ctx.Ctx.log_len <- 0;
  Hashtbl.reset t.ctx.Ctx.logged

(* this PTM's own nesting state, one record per Domain *)
let nest = Romulus.Nesting.create ()

(* Both fronts fetch the Domain's nesting record once and release the
   lock through [match … with exception], re-raising with the original
   backtrace, so an escaping exception never leaves the lock held and no
   [Fun.protect] closure is allocated. *)

(* an update inside this Domain's read_tx would wait for its own read
   lock: refuse it before taking the write lock *)
let update_tx t f =
  let s = Romulus.Nesting.get nest in
  if s.in_update then f ()
  else begin
    Romulus.Nesting.check_not_read_only s;
    Rwlock_rp.write_lock t.lock;
    s.in_update <- true;
    match
      begin_tx t;
      match f () with
      | v ->
        end_tx t;
        v
      | exception e ->
        let backtrace = Printexc.get_backtrace () in
        (match e with
         | Pmem.Region.Crash_point -> () (* machine is dead *)
         | _ ->
           abort_tx t;
           let st = Pmem.Region.stats t.ctx.Ctx.r in
           st.Pmem.Stats.tx_aborts <- st.Pmem.Stats.tx_aborts + 1);
        Romulus.Engine.raise_abort e backtrace
    with
    | v ->
      s.in_update <- false;
      Rwlock_rp.write_unlock t.lock;
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      s.in_update <- false;
      Rwlock_rp.write_unlock t.lock;
      Printexc.raise_with_backtrace e bt
  end

let read_tx t f =
  let s = Romulus.Nesting.get nest in
  if Romulus.Nesting.nested s then f ()
  else begin
    s.read_depth <- 1;
    Rwlock_rp.read_lock t.lock;
    match f () with
    | v ->
      Rwlock_rp.read_unlock t.lock;
      s.read_depth <- 0;
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Rwlock_rp.read_unlock t.lock;
      s.read_depth <- 0;
      Printexc.raise_with_backtrace e bt
  end

(* ---- accesses ---- *)

let load t off = Pmem.Region.load t.ctx.Ctx.r off
let load_bytes t off len = Pmem.Region.load_bytes t.ctx.Ctx.r off len

let compare_bytes t off len str =
  Pmem.Region.compare_bytes t.ctx.Ctx.r off len str

let store t off v =
  Romulus.Nesting.check_not_read_only (Romulus.Nesting.get nest);
  Ctx.store t.ctx off v;
  let s = Pmem.Region.stats t.ctx.Ctx.r in
  s.Pmem.Stats.user_bytes <- s.Pmem.Stats.user_bytes + 8

let store_bytes t off str =
  Romulus.Nesting.check_not_read_only (Romulus.Nesting.get nest);
  let c = t.ctx in
  if not c.Ctx.in_tx then raise Romulus.Engine.Store_outside_transaction;
  (* snapshot the covered words, then store the blob in place *)
  let len = String.length str in
  let first = off land lnot 7 in
  let last = (off + len + 7) land lnot 7 in
  let a = ref first in
  while !a < last do
    Ctx.log_old_value c !a;
    a := !a + 8
  done;
  Pmem.Region.store_bytes c.Ctx.r off str;
  Pmem.Region.pwb_range c.Ctx.r off len;
  let s = Pmem.Region.stats c.Ctx.r in
  s.Pmem.Stats.user_bytes <- s.Pmem.Stats.user_bytes + len

let alloc t n =
  Romulus.Nesting.check_not_read_only (Romulus.Nesting.get nest);
  if not t.ctx.Ctx.in_tx then
    raise Romulus.Engine.Store_outside_transaction;
  Alloc.alloc t.arena n

let free t p =
  Romulus.Nesting.check_not_read_only (Romulus.Nesting.get nest);
  if not t.ctx.Ctx.in_tx then
    raise Romulus.Engine.Store_outside_transaction;
  Alloc.free t.arena p

let root_addr i =
  if i < 0 || i >= Romulus.Ptm_intf.root_slots then
    raise (Romulus.Engine.Root_out_of_bounds i);
  header_bytes + (8 * i)

let get_root t i = Pmem.Region.load t.ctx.Ctx.r (root_addr i)

let set_root t i v =
  Romulus.Nesting.check_not_read_only (Romulus.Nesting.get nest);
  Ctx.store t.ctx (root_addr i) v

module Media = Single_copy.Make (struct
  type nonrec t = t

  let open_region = open_region
  let region = region
  let recover = recover

  let frontier t =
    let arena_base, _, _ = layout t.ctx.Ctx.r in
    arena_base + Alloc.used_bytes t.arena

  (* the in-place stores of a live transaction are not durable yet *)
  let guard t =
    if t.ctx.Ctx.in_tx then
      invalid_arg "Undolog.scrub: transaction in progress"
end)

include Media

(* the arena ends where the undo log begins *)
let heap_end t = t.ctx.Ctx.log_base

let recover_salvage t =
  (* Post-crash entry point: a crash inside [update_tx] leaves the shared
     context's volatile [in_tx] flag set (the machine died mid-transaction,
     so there was no abort to clear it).  The scrub guard would mistake
     that stale flag for a live writer, so reset it first — the recovery
     rollback that follows is what actually settles the log. *)
  t.ctx.Ctx.in_tx <- false;
  Media.recover_salvage t

(* test hook *)
let allocator_check t = Alloc.check t.arena
