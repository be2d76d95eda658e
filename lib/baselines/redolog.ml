(* Mnemosyne-like PTM (§2, §6.1): durable transactions built on a
   TinySTM/TL2-style STM with a redo log persisted at commit time.

   - Loads are interposed: a load first searches the transaction's write
     set for a buffered value (the cost the paper attributes to
     Mnemosyne's large transactions), then validates the stripe version.
   - Stores are buffered (word write set + blob write set); persistent
     memory is only modified at commit.
   - Commit persists redo records — one 64-byte slot per modified word
     (address, value, version, pad), modelling Mnemosyne's 8-word log
     entries and their write amplification; blobs are logged as a header
     slot plus raw data slots — then a commit marker, then performs the
     in-place write-back, then retires the log: 4 persistence fences per
     update transaction ("4 or more", Table 1).
   - Conflicts abort and re-execute the transaction closure, so closures
     must be re-executable (the fine-grained conflict behaviour is what
     makes the shared-counter hash map collapse in Figure 5).

   The allocator runs inside transactions: its metadata loads/stores go
   through the write set, so an aborted transaction simply discards its
   allocations, and a crash recovers to the last committed state.

   Region layout:

     0        magic
     8        log_commit   commit version of a log awaiting replay (0 = none)
     16       log_count    slots used in the log
     64       roots
     64+512   allocator arena ...
     size-L   redo log slots (64-byte stride)

   Write amplification and fence counts are measured by the shared region
   instrumentation, so Table 1 is reproduced from live counters. *)

open Sync_prims

let name = "mne"

let magic_value = 0x4D4E454D4F53 (* "MNEMOS" *)

(* Failpoint: the commit marker is durable but the in-place write-back
   has not happened — recovery must replay the whole log. *)
let fp_marker_durable = Fault.site "mne.commit.marker_durable"

(* Failpoint: every write-set stripe is locked and the read set has
   validated, but nothing durable has happened — an injected exception
   here must release every stripe and abort the transaction cleanly. *)
let fp_locks_acquired = Fault.site ~can_raise:true "mne.commit.locks_acquired"

let o_magic = 0
let o_log_commit = 8
let o_log_count = 16
let header_bytes = 64
let roots_bytes = 8 * Romulus.Ptm_intf.root_slots
let slot_bytes = 64

let tag_word = 0
let tag_blob = 1

exception Log_full

module Shared = struct
  type ctx = {
    mutable active : bool;
    mutable read_only : bool;
    mutable rv : int;
    mutable rs : int array;      (* stripe indices read *)
    mutable rs_n : int;
    mutable ws_addr : int array;
    mutable ws_val : int array;
    mutable ws_n : int;
    ws_index : (int, int) Hashtbl.t; (* addr -> write-set slot *)
    mutable blob_addr : int array;
    mutable blob_data : string array;
    mutable blob_n : int;
  }

  type t = {
    r : Pmem.Region.t;
    stm : Tinystm.t;
    ctxs : ctx option array;
    log_base : int;
    log_capacity : int; (* in 64-byte slots *)
    commit_lock : Spinlock.t;
  }

  let new_ctx () =
    { active = false; read_only = false; rv = 0;
      rs = Array.make 64 0; rs_n = 0;
      ws_addr = Array.make 64 0; ws_val = Array.make 64 0; ws_n = 0;
      ws_index = Hashtbl.create 64;
      blob_addr = Array.make 8 0; blob_data = Array.make 8 ""; blob_n = 0 }

  let ctx s =
    let tid = Tid.current () in
    match s.ctxs.(tid) with
    | Some c -> c
    | None ->
      let c = new_ctx () in
      s.ctxs.(tid) <- Some c;
      c

  let reset_ctx c ~read_only ~rv =
    c.active <- true;
    c.read_only <- read_only;
    c.rv <- rv;
    c.rs_n <- 0;
    c.ws_n <- 0;
    c.blob_n <- 0;
    Hashtbl.reset c.ws_index

  let push_read c idx =
    if c.rs_n = Array.length c.rs then begin
      let bigger = Array.make (2 * c.rs_n) 0 in
      Array.blit c.rs 0 bigger 0 c.rs_n;
      c.rs <- bigger
    end;
    c.rs.(c.rs_n) <- idx;
    c.rs_n <- c.rs_n + 1

  let push_write c addr v =
    match Hashtbl.find_opt c.ws_index addr with
    | Some slot -> c.ws_val.(slot) <- v
    | None ->
      if c.ws_n = Array.length c.ws_addr then begin
        let cap = 2 * c.ws_n in
        let a = Array.make cap 0 and b = Array.make cap 0 in
        Array.blit c.ws_addr 0 a 0 c.ws_n;
        Array.blit c.ws_val 0 b 0 c.ws_n;
        c.ws_addr <- a;
        c.ws_val <- b
      end;
      c.ws_addr.(c.ws_n) <- addr;
      c.ws_val.(c.ws_n) <- v;
      Hashtbl.replace c.ws_index addr c.ws_n;
      c.ws_n <- c.ws_n + 1

  let push_blob c addr data =
    if c.blob_n = Array.length c.blob_addr then begin
      let cap = 2 * c.blob_n in
      let a = Array.make cap 0 and d = Array.make cap "" in
      Array.blit c.blob_addr 0 a 0 c.blob_n;
      Array.blit c.blob_data 0 d 0 c.blob_n;
      c.blob_addr <- a;
      c.blob_data <- d
    end;
    c.blob_addr.(c.blob_n) <- addr;
    c.blob_data.(c.blob_n) <- data;
    c.blob_n <- c.blob_n + 1

  (* sample a stripe, abort if locked *)
  let sample s idx =
    let w = Tinystm.read_word s.stm idx in
    if Tinystm.is_locked w then raise Tinystm.Abort;
    w

  (* transactional load with TL2 pre/post validation *)
  let load s off =
    let c = ctx s in
    if not c.active then Pmem.Region.load s.r off
    else
      match Hashtbl.find_opt c.ws_index off with
      | Some slot -> c.ws_val.(slot)
      | None ->
        let idx = Tinystm.stripe s.stm off in
        let l1 = sample s idx in
        let v = Pmem.Region.load s.r off in
        let l2 = Tinystm.read_word s.stm idx in
        if l1 <> l2 || Tinystm.version l1 > c.rv then raise Tinystm.Abort;
        push_read c idx;
        v

  let store s off v =
    let c = ctx s in
    if not c.active || c.read_only then
      raise Romulus.Engine.Store_outside_transaction;
    push_write c off v

  (* words covered by a byte range *)
  let range_words off len =
    let first = off land lnot 7 in
    let last = (off + len + 7) land lnot 7 in
    (first, last)

  let store_blob s off data =
    let c = ctx s in
    if not c.active || c.read_only then
      raise Romulus.Engine.Store_outside_transaction;
    if String.length data > 0 then push_blob c off data

  (* Transactional blob load: validated snapshot of the underlying range,
     overlaid with buffered word and blob writes (read-your-writes). *)
  let load_blob s off len =
    let c = ctx s in
    if not c.active then Pmem.Region.load_bytes s.r off len
    else begin
      let first, last = range_words off len in
      (* collect the distinct stripes covering the range *)
      let stripes = ref [] in
      let a = ref first in
      while !a < last do
        let idx = Tinystm.stripe s.stm !a in
        if not (List.mem idx !stripes) then stripes := idx :: !stripes;
        a := !a + 8
      done;
      let l1s = List.map (fun idx -> (idx, sample s idx)) !stripes in
      let bytes = Bytes.of_string (Pmem.Region.load_bytes s.r first (last - first)) in
      List.iter
        (fun (idx, l1) ->
          let l2 = Tinystm.read_word s.stm idx in
          if l1 <> l2 || Tinystm.version l1 > c.rv then raise Tinystm.Abort;
          push_read c idx)
        l1s;
      (* overlay buffered word writes *)
      let a = ref first in
      while !a < last do
        (match Hashtbl.find_opt c.ws_index !a with
         | Some slot ->
           Bytes.set_int64_le bytes (!a - first)
             (Int64.of_int c.ws_val.(slot))
         | None -> ());
        a := !a + 8
      done;
      (* overlay buffered blob writes, in program order *)
      for i = 0 to c.blob_n - 1 do
        let baddr = c.blob_addr.(i) in
        let bdata = c.blob_data.(i) in
        let blen = String.length bdata in
        let lo = max baddr first and hi = min (baddr + blen) last in
        if lo < hi then
          Bytes.blit_string bdata (lo - baddr) bytes (lo - first) (hi - lo)
      done;
      Bytes.sub_string bytes (off - first) len
    end

  (* ---- commit ---- *)

  let slot_addr s i = s.log_base + (i * slot_bytes)

  let slots_for_blob len = 1 + ((len + slot_bytes - 1) / slot_bytes)

  (* Persist the redo records and the commit marker (2 fences). *)
  let persist_redo_log s c wv =
    let needed =
      c.ws_n
      + Array.fold_left ( + ) 0
          (Array.init c.blob_n (fun i ->
               slots_for_blob (String.length c.blob_data.(i))))
    in
    if needed > s.log_capacity then raise Log_full;
    let slot = ref 0 in
    for i = 0 to c.ws_n - 1 do
      let e = slot_addr s !slot in
      Pmem.Region.store s.r e tag_word;
      Pmem.Region.store s.r (e + 8) c.ws_addr.(i);
      Pmem.Region.store s.r (e + 16) c.ws_val.(i);
      Pmem.Region.store s.r (e + 24) wv;
      Pmem.Region.pwb_range s.r e 32;
      incr slot
    done;
    for i = 0 to c.blob_n - 1 do
      let data = c.blob_data.(i) in
      let len = String.length data in
      let e = slot_addr s !slot in
      Pmem.Region.store s.r e tag_blob;
      Pmem.Region.store s.r (e + 8) c.blob_addr.(i);
      Pmem.Region.store s.r (e + 16) len;
      Pmem.Region.store s.r (e + 24) wv;
      Pmem.Region.store_bytes s.r (e + slot_bytes) data;
      Pmem.Region.pwb_range s.r e (slot_bytes + len);
      slot := !slot + slots_for_blob len
    done;
    Pmem.Region.store s.r o_log_count !slot;
    Pmem.Region.pwb s.r o_log_count;
    Pmem.Region.pfence s.r;
    Pmem.Region.store s.r o_log_commit wv;
    Pmem.Region.pwb s.r o_log_commit;
    Pmem.Region.pfence s.r;
    Fault.hit fp_marker_durable

  let write_back s c =
    for i = 0 to c.ws_n - 1 do
      Pmem.Region.store s.r c.ws_addr.(i) c.ws_val.(i);
      Pmem.Region.pwb s.r c.ws_addr.(i)
    done;
    let blob_bytes = ref 0 in
    for i = 0 to c.blob_n - 1 do
      let data = c.blob_data.(i) in
      Pmem.Region.store_bytes s.r c.blob_addr.(i) data;
      Pmem.Region.pwb_range s.r c.blob_addr.(i) (String.length data);
      blob_bytes := !blob_bytes + String.length data
    done;
    let st = Pmem.Region.stats s.r in
    st.Pmem.Stats.user_bytes <-
      st.Pmem.Stats.user_bytes + (8 * c.ws_n) + !blob_bytes

  let retire_log s =
    Pmem.Region.pfence s.r;
    Pmem.Region.store s.r o_log_commit 0;
    Pmem.Region.pwb s.r o_log_commit;
    Pmem.Region.pfence s.r

  let commit s c =
    if c.ws_n = 0 && c.blob_n = 0 then ()
    else begin
      (* acquire write locks (word and blob stripes); abort wholesale on
         any conflict *)
      let acquired = Hashtbl.create 16 in (* stripe -> prev version *)
      let release_all () =
        Hashtbl.iter
          (fun idx prev ->
            Tinystm.release_unchanged s.stm idx ~prev_version:prev)
          acquired
      in
      let abort () =
        release_all ();
        raise Tinystm.Abort
      in
      let acquire idx =
        if not (Hashtbl.mem acquired idx) then
          match Tinystm.try_acquire s.stm idx with
          | Some prev -> Hashtbl.replace acquired idx prev
          | None -> abort ()
      in
      for i = 0 to c.ws_n - 1 do
        acquire (Tinystm.stripe s.stm c.ws_addr.(i))
      done;
      for i = 0 to c.blob_n - 1 do
        let first, last = range_words c.blob_addr.(i)
            (String.length c.blob_data.(i)) in
        let a = ref first in
        while !a < last do
          acquire (Tinystm.stripe s.stm !a);
          a := !a + 8
        done
      done;
      let wv = Tinystm.next_version s.stm in
      (* validate the read set *)
      for i = 0 to c.rs_n - 1 do
        let idx = c.rs.(i) in
        match Hashtbl.find_opt acquired idx with
        | Some prev -> if prev > c.rv then abort ()
        | None ->
          let w = Tinystm.read_word s.stm idx in
          if Tinystm.is_locked w || Tinystm.version w > c.rv then abort ()
      done;
      (* From here on, any escaping exception — Log_full, an injected
         fault, a simulated crash — must release the acquired stripes, or
         they stay locked forever and every later transaction touching
         them livelocks.  Before the commit marker is durable nothing has
         been published, so releasing with the previous versions is a
         clean abort; after it, only a crash can raise, and a dead region
         fails every subsequent access anyway. *)
      (try
         Fault.hit fp_locks_acquired;
         (* durable phase, serialized over the shared log *)
         Spinlock.lock s.commit_lock;
         Fun.protect
           ~finally:(fun () -> Spinlock.unlock s.commit_lock)
           (fun () ->
             persist_redo_log s c wv;
             write_back s c;
             retire_log s)
       with e ->
         release_all ();
         raise e);
      Hashtbl.iter (fun idx _ -> Tinystm.release s.stm idx ~ver:wv) acquired
    end
end

module Alloc = Palloc.Make (Shared)

type t = {
  s : Shared.t;
  arena : Alloc.t;
}

let region t = t.s.Shared.r

(* ---- recovery ---- *)

let recovery_error fmt =
  Printf.ksprintf (fun s -> raise (Romulus.Engine.Recovery_error s)) fmt

(* Validate the whole committed log before replaying any of it: slots and
   the count are fenced strictly before the commit marker, so a marker
   with a count outside the log, a slot with an unknown tag, or a record
   addressing bytes outside the region can only mean media corruption —
   replaying it would spray garbage over committed data. *)
let validate_log r ~log_base ~log_capacity =
  let size = Pmem.Region.size r in
  let count = Pmem.Region.load r o_log_count in
  if count < 0 || count > log_capacity then
    recovery_error "Redolog.recover: log count %d outside [0, %d]" count
      log_capacity;
  let i = ref 0 in
  while !i < count do
    let e = log_base + (!i * slot_bytes) in
    let tag = Pmem.Region.load r e in
    let addr = Pmem.Region.load r (e + 8) in
    if tag = tag_word then begin
      if addr < 0 || addr > size - 8 then
        recovery_error
          "Redolog.recover: word slot %d addresses %d outside region of %d \
           bytes"
          !i addr size;
      incr i
    end
    else if tag = tag_blob then begin
      let len = Pmem.Region.load r (e + 16) in
      if len < 0 || addr < 0 || addr + len > size then
        recovery_error
          "Redolog.recover: blob slot %d covers [%d, %d) outside region of \
           %d bytes"
          !i addr (addr + len) size;
      let span = 1 + ((len + slot_bytes - 1) / slot_bytes) in
      if !i + span > count then
        recovery_error
          "Redolog.recover: blob slot %d spans %d slots past the count %d"
          !i span count;
      i := !i + span
    end
    else recovery_error "Redolog.recover: slot %d has unknown tag %d" !i tag
  done;
  count

let replay r ~log_base ~log_capacity =
  if Pmem.Region.load r o_log_commit <> 0 then begin
    let count = validate_log r ~log_base ~log_capacity in
    let i = ref 0 in
    while !i < count do
      let e = log_base + (!i * slot_bytes) in
      let tag = Pmem.Region.load r e in
      let addr = Pmem.Region.load r (e + 8) in
      if tag = tag_word then begin
        let v = Pmem.Region.load r (e + 16) in
        Pmem.Region.store r addr v;
        Pmem.Region.pwb r addr;
        incr i
      end
      else begin
        let len = Pmem.Region.load r (e + 16) in
        let data = Pmem.Region.load_bytes r (e + slot_bytes) len in
        Pmem.Region.store_bytes r addr data;
        Pmem.Region.pwb_range r addr len;
        i := !i + 1 + ((len + slot_bytes - 1) / slot_bytes)
      end
    done;
    Pmem.Region.pfence r;
    Pmem.Region.store r o_log_commit 0;
    Pmem.Region.pwb r o_log_commit;
    Pmem.Region.pfence r
  end

(* ---- open/format ---- *)

let layout r =
  let size = Pmem.Region.size r in
  let log_bytes = max 8192 (size / 8) in
  let log_base = size - log_bytes in
  let arena_base = header_bytes + roots_bytes in
  if log_base - arena_base < Palloc.meta_bytes + 4096 then
    invalid_arg "Redolog: region too small";
  (arena_base, log_base, log_bytes / slot_bytes)

let open_region r =
  let arena_base, log_base, log_capacity = layout r in
  let s =
    { Shared.r;
      stm = Tinystm.create r;
      ctxs = Array.make Tid.max_threads None;
      log_base;
      log_capacity;
      commit_lock = Spinlock.create () }
  in
  let magic = Pmem.Region.load r o_magic in
  if magic <> 0 && magic <> magic_value then
    recovery_error "Redolog.open: unrecognized magic %#x" magic;
  if magic = magic_value then begin
    replay r ~log_base ~log_capacity;
    { s; arena = Alloc.attach s ~base:arena_base }
  end
  else begin
    (* format: buffer the initialization in a context, then materialize it
       with direct stores (single-threaded by contract) *)
    let c = Shared.ctx s in
    Shared.reset_ctx c ~read_only:false ~rv:max_int;
    let arena = Alloc.init s ~base:arena_base ~size:(log_base - arena_base) in
    for i = 0 to c.Shared.ws_n - 1 do
      Pmem.Region.store r c.Shared.ws_addr.(i) c.Shared.ws_val.(i);
      Pmem.Region.pwb r c.Shared.ws_addr.(i)
    done;
    c.Shared.active <- false;
    Pmem.Region.store r o_log_commit 0;
    Pmem.Region.store r o_log_count 0;
    Pmem.Region.pwb_range r 0 header_bytes;
    Pmem.Region.pfence r;
    Pmem.Region.store r o_magic magic_value;
    Pmem.Region.pwb r o_magic;
    Pmem.Region.pfence r;
    { s; arena }
  end

let recover t =
  (* volatile STM state evaporates with the process: clear contexts,
     stripe locks and the clock *)
  Array.iteri (fun i _ -> t.s.Shared.ctxs.(i) <- None) t.s.Shared.ctxs;
  Tinystm.reset t.s.Shared.stm;
  replay t.s.Shared.r ~log_base:t.s.Shared.log_base
    ~log_capacity:t.s.Shared.log_capacity

(* ---- transactions ---- *)

(* Bounded retry: a conflict storm surfaces as a typed
   Tinystm.Contention_exhausted after this many consecutive aborts,
   instead of an unbounded spin. *)
let max_attempts = 4096

(* Exponential backoff with deterministic per-(thread, attempt) jitter,
   so symmetric threads do not lock-step through identical retry
   schedules and re-collide forever. *)
let backoff n =
  let mix z =
    let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
    let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
    z lxor (z lsr 31)
  in
  let jitter =
    mix ((Tid.current () * 0x2545F4914F6CDD1D) + n) land 127
  in
  for _ = 1 to min 2048 (1 lsl min n 10) + jitter do
    Domain.cpu_relax ()
  done

let update_tx t f =
  let c = Shared.ctx t.s in
  if c.Shared.active then f ()
  else begin
    let rec attempt n =
      if n > max_attempts then
        raise (Tinystm.Contention_exhausted { attempts = max_attempts });
      Shared.reset_ctx c ~read_only:false ~rv:(Tinystm.now t.s.Shared.stm);
      match
        let v = f () in
        Shared.commit t.s c;
        v
      with
      | v ->
        c.Shared.active <- false;
        v
      | exception Tinystm.Abort ->
        c.Shared.active <- false;
        (* a writer that died mid-commit leaves stripes locked: on a dead
           machine, report the crash instead of retrying forever *)
        if Pmem.Region.is_dead t.s.Shared.r then
          raise Pmem.Region.Crash_point;
        Tinystm.record_abort t.s.Shared.stm;
        backoff n;
        attempt (n + 1)
      | exception e ->
        (* transaction failed for a non-conflict reason — user exception,
           log overflow, injected fault: the buffered writes are
           discarded and the typed abort reports the cause *)
        c.Shared.active <- false;
        let st = Pmem.Region.stats t.s.Shared.r in
        st.Pmem.Stats.tx_aborts <- st.Pmem.Stats.tx_aborts + 1;
        Romulus.Engine.raise_abort e (Printexc.get_backtrace ())
    in
    attempt 1
  end

let read_tx t f =
  let c = Shared.ctx t.s in
  if c.Shared.active then f ()
  else begin
    let rec attempt n =
      if n > max_attempts then
        raise (Tinystm.Contention_exhausted { attempts = max_attempts });
      Shared.reset_ctx c ~read_only:true ~rv:(Tinystm.now t.s.Shared.stm);
      match f () with
      | v ->
        c.Shared.active <- false;
        v
      | exception Tinystm.Abort ->
        c.Shared.active <- false;
        (* a writer that died mid-commit leaves stripes locked: on a dead
           machine, report the crash instead of retrying forever *)
        if Pmem.Region.is_dead t.s.Shared.r then
          raise Pmem.Region.Crash_point;
        Tinystm.record_abort t.s.Shared.stm;
        backoff n;
        attempt (n + 1)
      | exception e ->
        c.Shared.active <- false;
        raise e
    in
    attempt 1
  end

(* ---- accesses ---- *)

let load t off = Shared.load t.s off
let store t off v = Shared.store t.s off v
let load_bytes t off len = Shared.load_blob t.s off len

(* the STM validates a blob read as one snapshot of its stripes, so the
   comparison reads through that snapshot rather than in place *)
let compare_bytes t off len str = String.compare (load_bytes t off len) str

let store_bytes t off str = Shared.store_blob t.s off str

let alloc t n = Alloc.alloc t.arena n
let free t p = Alloc.free t.arena p

let root_addr i =
  if i < 0 || i >= Romulus.Ptm_intf.root_slots then
    raise (Romulus.Engine.Root_out_of_bounds i);
  header_bytes + (8 * i)

let get_root t i = Shared.load t.s (root_addr i)
let set_root t i v = Shared.store t.s (root_addr i) v

include Single_copy.Make (struct
  type nonrec t = t

  let open_region = open_region
  let region = region
  let recover = recover

  let frontier t =
    let arena_base, _, _ = layout t.s.Shared.r in
    arena_base + Alloc.used_bytes t.arena

  let guard _ = ()
end)

(* the arena ends where the redo log begins *)
let heap_end t = t.s.Shared.log_base

(* test hooks *)
let allocator_check t = Alloc.check t.arena
let aborts t = Tinystm.aborts t.s.Shared.stm
let stm t = t.s.Shared.stm
