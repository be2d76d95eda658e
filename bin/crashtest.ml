(* crashtest — table-driven crash-injection campaigns.

   Every campaign is one record of [campaigns] below: its name, the flags
   it reads, the shard count it needs, and per PTM the rows it runs.  A
   row builds its stores and workload, then each round runs crash steps:
   an instruction trap on a named region or a failpoint kill with a skip,
   the power-off of every region under the line-fate policy, an optional
   crash inside recovery, and the step's oracle.  The steps and the
   row's state — the rng, the policy of every power-off, the failures,
   the crash counts, the fired (site, policy) pairs — come from the
   Crash_driver library the test suites share; [run_row] below prints
   the row with its wall time, sets the exit code, and fails a row that
   misses a pair its campaign requires.

     crashtest --ptm romLR --workload tree --rounds 500 --seed 7
     crashtest --policy torn --rounds 200          # torn-word adversary
     crashtest --recovery-crashes 3                # crash recovery itself
     crashtest --ptm romL --failpoint engine.commit.cpy_published
     crashtest --campaign inject --rounds 25       # exception injection
     crashtest --campaign sharded --shards 4 --rounds 4
     crashtest --list-failpoints

   A flag the selected campaign does not read is refused (exit 2). *)

open Cmdliner
open Crash_driver

module type PTM = Kv.Sharded_db.SHARD_PTM

let ptms : (string * (module PTM)) list =
  [ ("rom", (module Romulus.Basic));
    ("romL", (module Romulus.Logged));
    ("romLR", (module Romulus.Lr));
    ("mne", (module Baselines.Redolog));
    ("pmdk", (module Baselines.Undolog)) ]

(* One counter of a sharded store's set ([SD.counters db]).  The set lives
   with the store handle: work done before a crash is counted by the
   crashed store, recovery work by the reopened one. *)
let counted set c = Kv.Sharded_db.Counters.get set c

(* the regions of an [n]-shard store *)
let shard_regions n =
  Array.init n (fun _ -> Pmem.Region.create ~size:(1 lsl 19) ())

(* ---- the campaigns' configuration ---- *)

type cfg = {
  rounds : int;
  seed : int;
  policy : [ pinned | `Mix ];
  workloads : (string * [ `List | `Tree | `Map ]) list;
  recovery_crashes : int;
  failpoint : string option;
  rot_rates : float list;
  nshards : int;
  verbose : bool;
}

(* ---- the list/tree/map workload ---- *)

(* Random adds and removes over keys 0..199 on a list, tree or map,
   shadowed by a sequential model; the crash, inject and scrub campaigns
   all drive it. *)
module Ds (P : PTM) = struct
  module L = Pds.Linked_list.Make (P)
  module T = Pds.Rb_tree.Make (P)
  module H = Pds.Hash_map.Make (P)

  type t = {
    kind : [ `List | `Tree | `Map ];
    list_ : L.t;
    tree : T.t;
    map : H.t;
    shadow : (int, int) Hashtbl.t;
    mutable inflight : int * int option;
        (* the last operation begun: its key and the value it writes *)
  }

  (* create the structures before any trap is armed: a crash during lazy
     creation would poison the thunk *)
  let create kind p =
    { kind; list_ = L.create p ~root:0; tree = T.create p ~root:1;
      map = H.create ~initial_buckets:8 p ~root:2;
      shadow = Hashtbl.create 64; inflight = (0, None) }

  let set t k = function
    | Some v -> Hashtbl.replace t.shadow k v
    | None -> Hashtbl.remove t.shadow k

  (* one random add or remove; the model follows once it returns *)
  let apply t ~draw =
    let k = draw 200 in
    let after =
      if draw 2 = 0 then None
      else Some (match t.kind with `List -> k | `Tree -> k * 3 | `Map -> k * 5)
    in
    t.inflight <- (k, after);
    (match (t.kind, after) with
     | `List, Some _ -> ignore (L.add t.list_ k)
     | `List, None -> ignore (L.remove t.list_ k)
     | `Tree, Some v -> ignore (T.put t.tree k v)
     | `Tree, None -> ignore (T.remove t.tree k)
     | `Map, Some v -> ignore (H.put t.map k v)
     | `Map, None -> ignore (H.remove t.map k));
    set t k after

  let get t k =
    match t.kind with
    | `List -> if L.contains t.list_ k then Some k else None
    | `Tree -> T.get t.tree k
    | `Map -> H.get t.map k

  (* after a crash the operation in flight committed whole or not at all:
     the model takes its value only if the structure holds it *)
  let adopt_inflight t =
    let k, after = t.inflight in
    if get t k = after then set t k after

  let contents t =
    List.sort compare
      (match t.kind with
       | `List -> L.fold t.list_ (fun acc k -> (k, k) :: acc) []
       | `Tree -> T.fold t.tree (fun acc k v -> (k, v) :: acc) []
       | `Map -> H.fold t.map (fun acc k v -> (k, v) :: acc) [])

  let expected t =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.shadow [])

  let check t =
    match t.kind with
    | `List -> L.check t.list_
    | `Tree -> T.check t.tree
    | `Map -> H.check t.map

  let divergences t =
    let mine = contents t and theirs = expected t in
    List.length (List.filter (fun kv -> not (List.mem kv theirs)) mine)
    + List.length (List.filter (fun kv -> not (List.mem kv mine)) theirs)
end

(* ---- crash: the list/tree/map workload under crashes ---- *)

(* Each round runs random operations with an instruction trap (or the
   --failpoint site) armed, on until it fires (at most 64), so the trap
   fires every round; a failpoint may lie off the operations' paths
   (abort, recovery, scrub), so its pairs are printed but not required.
   After a crash, recovery runs — crashed itself up to --recovery-crashes
   levels deep, each level trapping the running recovery and restarting
   it, the last running untrapped — and the structure must pass its
   invariants and equal the model exactly, except that the operation in
   flight may hold its value before or after.  A round without a crash
   must equal the model exactly. *)
let crash_rows ~ptm:_ (module P : PTM) cfg =
  List.map
    (fun (wname, kind) ->
      ( wname,
        (if cfg.failpoint = None then
           rotated cfg.policy ~rounds:cfg.rounds [ "trap" ]
         else []),
        fun r ->
          let module W = Ds (P) in
          let region = Pmem.Region.create ~size:(1 lsl 20) () in
          let p = P.open_region region in
          let w = W.create kind p in
          let rec recover_nested level =
            if level < cfg.recovery_crashes then
              match
                armed [| region |] (Trap (0, draw r 60)) (fun () -> P.recover p)
              with
              | false, Some () -> ()
              | _ ->
                fired_at r ~recovery:true "recovery-trap" [| region |];
                recover_nested (level + 1)
            else P.recover p
          in
          fun round ->
            let inj =
              match cfg.failpoint with
              | None -> Trap (0, draw r 400)
              | Some site -> Kill (site, draw r 8, Some 0)
            in
            try
              if
                crash_step r ~always:false [| region |] inj (fun () ->
                    for _ = 1 to 64 do
                      W.apply w ~draw:(draw r)
                    done)
              then begin
                recover_nested 0;
                W.adopt_inflight w
              end;
              (match W.check w with
               | Ok () -> ()
               | Error e -> fail r "round %d: structural: %s" round e);
              let diff = W.divergences w in
              if diff > 0 then
                fail r "round %d: %d divergences from the model" round diff
            with Romulus.Engine.Recovery_error e ->
              fail r "round %d: recovery refused a legitimate crash state: %s"
                round e ))
    cfg.workloads

(* ---- inject: exception injection and the abort contract ---- *)

(* Which raise-capable sites a PTM can actually reach: the engine and
   combiner sites belong to the Romulus variants, the STM/undo-log sites
   to their baselines, and the allocator sites to everyone. *)
let site_applicable ~ptm site =
  let prefixes =
    match ptm with
    | "rom" -> [ "engine."; "rom."; "palloc." ]
    | "romL" -> [ "engine."; "romL."; "palloc." ]
    | "romLR" -> [ "engine."; "palloc." ]
    | "mne" -> [ "mne."; "palloc." ]
    | "pmdk" -> [ "pmdk."; "palloc." ]
    | _ -> []
  in
  List.exists (fun prefix -> String.starts_with ~prefix site) prefixes

(* One row per reachable raise-capable site: armed each round to raise
   [Fault.Injected] (after a random number of skipped visits) while a
   batch of random update operations runs.  The abort contract checked
   after every round:

     (a) the caller observed a typed Engine.Tx_aborted whose cause is
         the injected exception — never a bare Injected, Failure or
         Invalid_argument;
     (b) the structure agrees with the sequential shadow oracle
         *exactly* (no crash happened, so not even one in-flight
         operation may diverge) and the allocator is structurally sound;
     (c) recovery right after an abort is a byte-level no-op on the
         persistent image (the abort already restored everything);
     (d) a follow-up update transaction from a different thread slot
         commits and is visible — no lock is still held, no combiner
         slot stranded. *)
let inject_rows ~ptm (module P : PTM) cfg =
  let module W = Ds (P) in
  let sites =
    match cfg.failpoint with Some s -> [ s ] | None -> Fault.raise_sites ()
  in
  let row kind site r =
    let region = Pmem.Region.create ~size:(1 lsl 20) () in
    let p = P.open_region region in
    let w = W.create kind p in
    (* warm-up, un-armed: populate the structures so that removes actually
       free chunks and allocations are served from the bins — otherwise
       the allocator sites are unreachable in early rounds *)
    for _ = 1 to 32 do
      W.apply w ~draw:(draw r)
    done;
    (* A round counts only when the armed site actually fired (frees, bin
       reuse and batch shapes are workload-dependent); attempts are capped
       so a genuinely unreachable site still fails loudly. *)
    let fired_rounds = ref 0 in
    let attempts = ref 0 in
    fun round ->
      let injected = ref false in
      while (not !injected) && !attempts < cfg.rounds * 50 do
        incr attempts;
        Fault.arm ~skip:(draw r 2) site (fun () -> raise (Fault.Injected site));
        for _ = 1 to 4 do
          match W.apply w ~draw:(draw r) with
          | () -> ()
          | exception Romulus.Engine.Tx_aborted { cause = Fault.Injected s; _ }
            when String.equal s site ->
            injected := true;
            record r site "raise";
            tally r "injected aborts" 1
          | exception e ->
            fail r "attempt %d: fault at %s escaped untyped: %s" !attempts site
              (Printexc.to_string e)
        done;
        Fault.disarm ()
      done;
      if !injected then begin
        incr fired_rounds;
        (match W.check w with
         | Ok () -> ()
         | Error e -> fail r "round %d: structural: %s" round e);
        let diff = W.divergences w in
        if diff > 0 then
          fail r "round %d: aborted transaction visible: %d divergences" round
            diff;
        (match P.allocator_check p with
         | Ok () -> ()
         | Error e -> fail r "round %d: allocator: %s" round e);
        let before = Pmem.Region.persistent_snapshot region in
        P.recover p;
        let after = Pmem.Region.persistent_snapshot region in
        if not (String.equal before after) then
          fail r "round %d: recovery after an abort changed the persistent image"
            round;
        (* a fresh domain takes a different thread slot: its commit proves
           no lock is still held and no combiner request is stranded *)
        (match
           Domain.join
             (Domain.spawn (fun () ->
                  Sync_prims.Tid.with_slot (fun _ ->
                      P.update_tx p (fun () -> P.set_root p 63 round))))
         with
         | () -> ()
         | exception e ->
           fail r "round %d: follow-up commit failed: %s" round
             (Printexc.to_string e));
        if P.read_tx p (fun () -> P.get_root p 63) <> round then
          fail r "round %d: follow-up transaction not visible" round
      end;
      if round = cfg.rounds && !fired_rounds < round then
        fail r "site %s fired only %d/%d times in %d attempts" site
          !fired_rounds round !attempts
  in
  List.concat_map
    (fun (wname, kind) ->
      List.filter_map
        (fun site ->
          if site_applicable ~ptm site then
            Some (wname ^ " " ^ site, [ (site, "raise") ], row kind site)
          else None)
        sites)
    cfg.workloads

(* ---- scrub: media rot, differential against a control ---- *)

(* A victim and a control PTM run the same deterministic workload and
   settle to identical durable images; rot is injected into the victim's
   used persistent spans at each --rot-rates rate; then the victim
   restarts.  Twin-copy designs must come back byte-identical to the
   control; single-image baselines must surface every fault as a typed
   error — silently returning corrupt data is the only sin.  On the
   twin-copy designs each round also crashes *inside the repair window*
   (failpoint kills on engine.scrub.* plus an instruction-trap sweep over
   recovery) under all four line-fate policies, which they must all
   fire, and requires convergence all the same. *)
let scrub_rows ~ptm:_ (module P : PTM) cfg =
  let module W = Ds (P) in
  let twin =
    let region = Pmem.Region.create ~size:(1 lsl 20) () in
    List.length (P.media_spans (P.open_region region)) = 2
  in
  let window = [ "engine.scrub.bad_line"; "engine.scrub.repaired"; "trap" ] in
  let required =
    if twin then rotated `Mix ~rounds:4 window else []
  in
  (* Build a region and run 64 deterministic update operations.  Identical
     [wseed] => byte-identical images. *)
  let build kind ~wseed =
    let region = Pmem.Region.create ~size:(1 lsl 20) () in
    let p = P.open_region region in
    let w = W.create kind p in
    let rng = Workload.Keygen.create ~seed:wseed () in
    for _ = 1 to 64 do
      W.apply w ~draw:(Workload.Keygen.int rng)
    done;
    (region, p, w)
  in
  (* Settle to a durable resting image with every line clean: power off,
     recover, power off again (the second recovery below then starts from
     rot at rest, exactly the deployment scenario). *)
  let settle region p =
    Pmem.Region.crash region Pmem.Region.Drop_all;
    P.recover p;
    Pmem.Region.crash region Pmem.Region.Drop_all
  in
  (* Corrupt back-copy lines only where the main-copy twin is still sound:
     rotting both twins of one line is unrepairable by design and not what
     this campaign asserts. *)
  let corrupt_back_unpaired region spans ~salt =
    match spans with
    | [ (mbase, mspan); (bbase, _) ] when mspan > 0 ->
      let line_size = Pmem.Region.line_size region in
      let twin_d = (bbase - mbase) / line_size in
      let bl = (bbase + mspan - 1) / line_size in
      if Pmem.Region.media_ok region ~line:(bl - twin_d) then
        Pmem.Region.corrupt_line ~seed:salt region ~line:bl;
      let bl2 = bbase / line_size in
      if bl2 <> bl && Pmem.Region.media_ok region ~line:(bl2 - twin_d) then
        Pmem.Region.corrupt_bits region ~seed:salt ~off:(bl2 * line_size)
          ~len:line_size ~flips:3
    | _ -> ()
  in
  let snapshot = Pmem.Region.persistent_snapshot in
  let round kind r round =
    let wseed = cfg.seed + (1009 * round) in
    (* ---- rot differential, one run per rate ---- *)
    List.iteri
      (fun ri rate ->
        let salt = wseed + (97 * ri) in
        let vregion, victim, vw = build kind ~wseed in
        let cregion, control, _ = build kind ~wseed in
        settle vregion victim;
        settle cregion control;
        if not (String.equal (snapshot vregion) (snapshot cregion)) then
          fail r "round %d: victim and control diverged before injection" round;
        let spans = P.media_spans victim in
        let rotted =
          match spans with
          | (base, span) :: _ when span > 0 ->
            Pmem.Region.inject_rot ~off:base ~len:span vregion
              (Pmem.Region.Media_rot { seed = salt; rate })
          | _ -> 0
        in
        if twin then corrupt_back_unpaired vregion spans ~salt;
        P.recover control;
        if twin then begin
          (* twin-copy: restart must repair everything and come back
             byte-identical to the never-rotted control *)
          match P.recover victim with
          | exception e ->
            fail r "round %d rate %g: recovery refused repairable rot: %s" round
              rate (Printexc.to_string e)
          | () ->
            let s = Pmem.Region.stats vregion in
            tally r "lines repaired" s.Pmem.Stats.repaired_lines;
            if not (String.equal (snapshot vregion) (snapshot cregion)) then
              fail r
                "round %d rate %g: image differs from control after scrub (%d \
                 lines rotted)"
                round rate rotted;
            (match W.check vw with
             | Ok () -> ()
             | Error e -> fail r "round %d rate %g: structural: %s" round rate e);
            if W.contents vw <> W.expected vw then
              fail r "round %d rate %g: data differs from the oracle" round rate;
            let rep = P.scrub victim in
            if rep.Romulus.Engine.repaired <> 0 then
              fail r "round %d rate %g: second scrub repaired %d more lines"
                round rate rep.Romulus.Engine.repaired
        end
        else begin
          (* single image: every fault must surface typed — recovery, scrub,
             or the reads themselves — never as silent garbage *)
          match P.recover victim with
          | exception Pmem.Region.Media_error _ -> tally r "detections" 1
          | exception Romulus.Engine.Unrepairable _ -> tally r "detections" 1
          | () -> (
            (match P.scrub victim with
             | exception Romulus.Engine.Unrepairable _ -> tally r "detections" 1
             | (_ : Romulus.Engine.scrub_report) -> ());
            match W.contents vw with
            | exception Pmem.Region.Media_error _ -> tally r "detections" 1
            | got ->
              if got <> W.expected vw then
                fail r
                  "round %d rate %g: SILENT corruption: %d rotted lines, reads \
                   diverged with no typed error"
                  round rate rotted)
        end)
      cfg.rot_rates;
    (* ---- crashes inside the repair window (twin-copy designs) ---- *)
    if twin then begin
      let vregion, victim, _ = build kind ~wseed in
      let cregion, control, _ = build kind ~wseed in
      settle vregion victim;
      settle cregion control;
      P.recover victim;
      P.recover control;
      let oracle = snapshot cregion in
      let mbase, mspan = List.hd (P.media_spans victim) in
      let line = (mbase + mspan - 1) / Pmem.Region.line_size vregion in
      let converged what policy =
        if not (String.equal (snapshot vregion) oracle) then
          fail r "round %d: %s under %s left a diverged image" round what policy
      in
      (* rot the line, then recover with [inj] armed; a crash is resolved
         under [p] and recovery rerun *)
      let crashed_recovery p inj =
        Pmem.Region.corrupt_line vregion ~line;
        fst (recover_crashed r ~p [| vregion |] inj (fun () -> P.recover victim))
      in
      List.iter
        (fun p ->
          let pname = policy_name p in
          (* failpoint kills: power off right at the detection point and
             right after the repairing fence *)
          List.iter
            (fun site ->
              if not (crashed_recovery p (Kill (site, 0, Some 0))) then
                fail r "round %d: %s did not fire" round site;
              converged site pname)
            [ "engine.scrub.bad_line"; "engine.scrub.repaired" ];
          (* instruction-trap sweep over the whole repairing recovery *)
          let rec sweep k =
            let crashed = crashed_recovery p (Trap (0, k)) in
            converged (Printf.sprintf "trap %d" k) pname;
            if crashed then
              if k >= 5_000 then
                fail r "round %d: repair-window sweep did not terminate" round
              else sweep (k + 1)
          in
          sweep 0)
        (List.map (region_policy (wseed + 5)) (Array.to_list rotation))
    end
  in
  List.map
    (fun (wname, kind) -> (wname, required, fun r -> round kind r))
    cfg.workloads

(* ---- sharded, chunked: a cross-shard batch crashed in every window ---- *)

(* A kill window of the batch campaigns' step (b): its failpoint, the
   range of visits its kill skips, whether the batch must roll forward,
   and the counter that proves the protocol ran.  [parked]: a committed
   batch is parked first (the lazy-CLEAR window), and the counter is read
   on the store that ran the batches, not on the reopened one. *)
type window = {
  site : string;
  skips : int;
  forward : bool;
  counter : Kv.Sharded_db.counter;
  parked : bool;
}

(* Differential all-or-nothing campaigns for the sharded store's
   cross-shard commit protocol.  Each round builds fresh stores, seeds
   them, and crashes a cross-shard write batch several ways:

     (a) an instruction trap at a random point on every shard's region;
     (b) failpoint kills of the batch coordinator's region inside each
         protocol window.  sharded: after a participant's mirror+apply
         (expect presumed abort), after the COMMIT flip (roll-forward) and
         inside the lazy-CLEAR piggyback of a second batch (the first
         must stay applied).  chunked: mid-chain, at a spill, in the seal
         window (a complete but unsealed chain is presumed-abort garbage)
         and after the flip (roll-forward with parked chains); the skip
         moves the kill along the chain and across participants.  A
         second recovery of the reopened store must keep the outcome;
     (c) a crash inside the recovery fan-out, at a trap placed inside the
         work an identical control's recovery measures;
     (d) a kill in a pre-flip window once the mirrors are hooked, then a
         kill inside recovery's resolution loop (sharded: mirror
         resolution; chunked: chain GC): the rerun must converge on the
         rolled-back image.

   The chunked stores run with small chunk/spill knobs and overwrite
   ~700-byte values with ~900-byte ones, so every PREPARE streams a
   multi-chunk CRC-protected chain and spills every undo image.  The
   oracle requires the batch exactly all-or-nothing — a torn large value
   is a failure — untouched committed keys to survive, no record left
   hooked, and every shard to pass its structural, allocator and
   participant-mask checks.  The protocol counters are asserted so the
   campaign proves the protocol ran; a sanity pass per row checks that
   the batch spans shards, and on the chunked stores that chains stream
   and spill, an explicit drain ticks clear_flushes, and an undersized
   admission budget refuses the batch typed and untouched. *)
let batch_rows ~chunked ~ptm:_ (module P : PTM) cfg =
  let module SD = Kv.Sharded_db.Make (P) in
  let windows =
    let back site skips =
      { site; skips; forward = false; counter = Rolled_back; parked = false }
    and flip =
      { site = "sharded.d.flip_written"; skips = 1; forward = true;
        counter = Rolled_forward; parked = false }
    in
    if chunked then
      [ back "sharded.chunk.written" 4; back "sharded.chunk.spilled" 3;
        back "sharded.chunk.seal_window" 2; flip ]
    else
      [ back "sharded.d.mirror_applied" 2; flip;
        { site = "sharded.d.mirror_cleared"; skips = 1; forward = true;
          counter = Intent_prepares; parked = true } ]
  in
  (* (d): the pre-flip kill, and the kill inside recovery *)
  let pre, resolving =
    if chunked then ("sharded.chunk.seal_window", "sharded.chunk.gc")
    else ("sharded.d.mirror_applied", "sharded.recover.mirror_resolved")
  in
  let required =
    List.map (fun w -> w.site) windows @ [ "recovery-trap"; resolving ]
  in
  let chunk_bytes, spill_threshold =
    if chunked then (Some 256, Some 192) else (None, None)
  in
  let open_db ?admission_budget rs =
    SD.open_db ~initial_buckets:8 ?chunk_bytes ?spill_threshold
      ?admission_budget rs
  in
  let big tag len =
    String.init len (fun i -> Char.chr ((tag + (7 * i)) land 0xff))
  in
  (* the seeded keys, and the batch: enough distinct keys that it always
     spans several shards *)
  let seeded, ops =
    if chunked then
      let key i = Printf.sprintf "blob%02d" i in
      ( List.init 8 (fun i -> (key i, big (3 + i) 700)),
        List.init 8 (fun i -> (key i, Some (big (101 + i) 900)))
        @ [ ("fresh-blob", Some (big 77 700)) ] )
    else
      let key i = Printf.sprintf "key%03d" i in
      ( List.init 12 (fun i -> (key i, Printf.sprintf "value-%04d" i)),
        List.map
          (fun c -> ("batch-" ^ c, Some (String.uppercase_ascii c)))
          [ "a"; "b"; "c"; "d"; "e"; "f" ]
        @ [ (key 1, Some "overwritten"); (key 2, None) ] )
  in
  let fresh ?admission_budget () =
    let rs = shard_regions cfg.nshards in
    let db = open_db ?admission_budget rs in
    List.iter (fun (k, v) -> SD.put db k v) seeded;
    (rs, db)
  in
  let run_batch db =
    SD.write_batch db (fun b ->
        List.iter
          (fun (k, v) ->
            match v with
            | Some v -> SD.put b k v
            | None -> ignore (SD.delete b k))
          ops)
  in
  let recover ~parallel rs db =
    if chunked then open_db rs
    else (
      SD.recover ~parallel db;
      db)
  in
  (* all-or-nothing; [expect] pins the outcome where the protocol makes it
     deterministic (kills before the COMMIT flip roll back, kills after it
     roll forward) *)
  let oracle r what db ~expect =
    (match SD.check db with
     | Ok () -> ()
     | Error e -> fail r "%s: check: %s" what e);
    let k0, v0 = List.hd ops in
    let applied = SD.get db k0 = v0 in
    (match expect with
     | Some want when want <> applied ->
       fail r "%s: expected the batch %s, found it %s" what
         (if want then "applied" else "rolled back")
         (if applied then "applied" else "rolled back")
     | _ -> ());
    List.iter
      (fun (k, v) ->
        let want = if applied then v else List.assoc_opt k seeded in
        if SD.get db k <> want then
          fail r "%s: torn or half-applied value at %s" what k)
      ops;
    List.iter
      (fun (k, v) ->
        if (not (List.mem_assoc k ops)) && SD.get db k <> Some v then
          fail r "%s: lost committed key %s" what k)
      seeded;
    if SD.pending_intents db <> 0 then
      fail r "%s: records left hooked after recovery" what
  in
  (* sanity once per row: the batch really is cross-shard, and a clean run
     ticks the protocol counters *)
  let sanity r =
    let _, db = fresh () in
    let groups =
      List.sort_uniq compare (List.map (fun (k, _) -> SD.shard_of_key db k) ops)
    in
    if List.length groups < 2 then
      fail r "batch spans %d shard(s); campaign needs a cross-shard batch"
        (List.length groups);
    run_batch db;
    let st = SD.counters db in
    if counted st Intent_prepares = 0 then
      fail r "clean batch ticked no intent PREPAREs";
    if counted st Coordinator_flips = 0 then
      fail r "clean batch ticked no COMMIT flips";
    if chunked then begin
      let nkeys = List.length seeded in
      let chunks = counted st Chunks_written in
      if chunks < 2 * List.length groups then
        fail r "clean batch streamed only %d chunks over %d shards" chunks
          (List.length groups);
      let spilled = counted st Chunks_spilled in
      if spilled < nkeys then
        fail r "clean batch spilled only %d undo images (want >= %d)" spilled
          nkeys;
      SD.flush_clears db;
      if counted st Clear_flushes = 0 then
        fail r "explicit drain ticked no clear_flushes";
      if SD.pending_intents db <> 0 then
        fail r "flush_clears left %d records parked" (SD.pending_intents db);
      List.iter
        (fun (k, v) ->
          if SD.get db k <> v then fail r "clean chunked batch lost %s" k)
        ops;
      let _, db = fresh ~admission_budget:256 () in
      (match run_batch db with
       | () -> fail r "a 256-byte admission budget admitted a multi-KB batch"
       | exception Kv.Sharded_db.Overloaded _ -> ()
       | exception e ->
         fail r "admission refusal escaped untyped: %s" (Printexc.to_string e));
      if counted (SD.counters db) Overload_rejections = 0 then
        fail r "refused batch ticked no overload_rejections";
      List.iter
        (fun (k, v) ->
          if SD.get db k <> Some v then fail r "refused batch touched %s" k)
        seeded;
      if SD.pending_intents db <> 0 then
        fail r "refused batch left records hooked"
    end;
    (List.hd groups, List.length groups)
  in
  let round r ~coordinator ~nparts round =
    (* (a) *)
    for t = 0 to cfg.nshards - 1 do
      let rs, db = fresh () in
      let span = if chunked then 1200 else 400 in
      ignore
        (crash_step r rs (Trap (t, 1 + draw r span)) (fun () -> run_batch db));
      oracle r (Printf.sprintf "round %d trap shard %d" round t) (open_db rs)
        ~expect:None
    done;
    (* (b) *)
    List.iter
      (fun { site; skips; forward; counter; parked } ->
        let rs, db = fresh () in
        if parked then run_batch db;
        let skip = if skips > 1 then draw r skips else 0 in
        if crash_step r ~always:false rs (Kill (site, skip, Some coordinator))
             (fun () -> run_batch db)
        then begin
          let reopened = open_db rs in
          let what = Printf.sprintf "round %d %s" round site in
          oracle r what reopened ~expect:(Some forward);
          if counted (SD.counters (if parked then db else reopened)) counter = 0
          then fail r "%s: protocol counters did not move" what;
          (* reconciliation converged: another pass changes nothing *)
          SD.recover ~parallel:false reopened;
          oracle r (what ^ ", recovered again") reopened ~expect:(Some forward)
        end
        else fail r "round %d: %s did not fire" round site)
      windows;
    (* (c) the controls recover sequentially: they only measure each
       shard's recovery work, which is the same either way, and spawn
       no domains *)
    let _, db =
      crash_in_recovery r ~fresh ~op:run_batch
        ~recover:(fun ~control -> recover ~parallel:(not control))
        coordinator
    in
    oracle r (Printf.sprintf "round %d parallel recovery" round) db ~expect:None;
    (* (d) *)
    let rs, db = fresh () in
    let skip = if chunked then 0 else nparts - 1 in
    if
      not
        (crash_step r rs (Kill (pre, skip, Some coordinator)) (fun () ->
             run_batch db))
    then fail r "round %d: %s did not fire" round pre;
    let fired, db =
      recover_crashed r rs
        (Kill (resolving, 0, Some (draw r cfg.nshards)))
        (fun () -> recover ~parallel:false rs db)
    in
    if not fired then fail r "round %d: %s did not fire" round resolving;
    oracle r (Printf.sprintf "round %d %s crash" round resolving) db
      ~expect:(Some false)
  in
  [ ( Printf.sprintf "%d-shard" cfg.nshards,
      rotated cfg.policy ~rounds:cfg.rounds required,
      fun r ->
        let coordinator, nparts = sanity r in
        round r ~coordinator ~nparts ) ]

(* ---- migrate: online shard split/merge ---- *)

(* Crash-safe online split/merge: every round seeds a store, then kills it
   mid-resize — with an instruction trap at a random primitive on every
   region (including the split's target), with failpoint kills inside
   each sharded.migrate.* window (intent durable, after a move batch's
   source transaction — the keys' only home is the CRC-protected cursor —
   after its target transaction, after the epoch flip, and after
   reclamation), with a second crash inside recovery's migration resume
   (on one of the three resuming windows each round), and with a racing
   single-key write fired between the two halves of a move batch.  The
   oracle after every reopen: [check] passes, every seeded key is present
   exactly once (the raced key at the racing value), no migration intent
   is left hooked, and a durable intent implies the resize completed
   (epoch advanced, exactly one completion ever counted). *)
let mig_sites =
  [ "sharded.migrate.intent_open"; "sharded.migrate.batch_moved";
    "sharded.migrate.batch_applied"; "sharded.migrate.epoch_flip";
    "sharded.migrate.reclaimed" ]

let migrate_rows ~ptm:_ (module P : PTM) cfg =
  let module SD = Kv.Sharded_db.Make (P) in
  let nshards = cfg.nshards in
  let nkeys = 48 in
  let key i = Printf.sprintf "mig%03d" i in
  let value i = Printf.sprintf "v-%04d-%s" i (String.make (i mod 40) 'x') in
  (* the chunk floor forces every split into a multi-batch move stream *)
  let reopen rs =
    SD.open_db ~initial_buckets:8 ~chunk_bytes:Kv.Sharded_db.min_chunk_bytes rs
  in
  (* a seeded store over the first [nshards] regions of [all]; the last is
     the split's target *)
  let fresh () =
    let all = shard_regions (nshards + 1) in
    let db = reopen (Array.sub all 0 nshards) in
    for i = 0 to nkeys - 1 do
      SD.put db (key i) (value i)
    done;
    (all, db)
  in
  let split db all src = ignore (SD.split_shard db ~source:src all.(nshards)) in
  (* [racing]: the raced key and the value its durable racing write must
     have pinned; [epoch]: the exact post-recovery epoch when the crash
     window guarantees one (a trap may land before the intent commits, so
     trap sweeps accept either outcome) *)
  let oracle r what db ?epoch ?racing () =
    (match SD.check db with
     | Ok () -> ()
     | Error e -> fail r "%s: check: %s" what e);
    let seen = Hashtbl.create 64 in
    SD.iter db (fun k v ->
        if Hashtbl.mem seen k then fail r "%s: key %s present twice" what k;
        Hashtbl.replace seen k v);
    for i = 0 to nkeys - 1 do
      let want =
        match racing with
        | Some (rk, rv) when rk = key i -> rv
        | _ -> Some (value i)
      in
      match (want, Hashtbl.find_opt seen (key i)) with
      | Some w, Some got when got = w -> ()
      | None, None -> ()
      | Some _, None -> fail r "%s: lost key %s" what (key i)
      | None, Some _ -> fail r "%s: raced delete of %s resurrected" what (key i)
      | Some _, Some got ->
        fail r "%s: wrong value at %s (%d bytes)" what (key i)
          (String.length got)
    done;
    if SD.migration_pending db then
      fail r "%s: migration intent left hooked after recovery" what;
    match epoch with
    | Some e when SD.epoch db <> e ->
      fail r "%s: epoch %d after recovery, want %d" what (SD.epoch db) e
    | _ ->
      if SD.epoch db < 0 || SD.migration_pending db then
        fail r "%s: inconsistent routing after recovery" what
  in
  (* a kill inside the named window; the victim region is the one every
     pre-reclaim phase touches promptly, so arming it is guaranteed to
     land — the reclaimed site is the resize's last region access and
     crashes at the site itself *)
  let window site skip victim =
    Kill
      (site, skip,
       if site = "sharded.migrate.reclaimed" then None else Some victim)
  in
  let batch_site site =
    site = "sharded.migrate.batch_moved"
    || site = "sharded.migrate.batch_applied"
  in
  let completions db = counted (SD.counters db) Migrations_completed in
  let round r round =
    (* (a) instruction trap at a random primitive on every region, the
       split's freshly-formatted target included — a primitive of the work
       the same split does on that region of an identical control *)
    for t = 0 to nshards do
      let src = draw r nshards in
      let work =
        let all, db = fresh () in
        (measure all (fun () -> split db all src)).(t)
      in
      let all, db = fresh () in
      ignore
        (crash_step r all
           (Trap (t, draw r (max 1 work)))
           (fun () -> split db all src));
      oracle r (Printf.sprintf "round %d trap region %d" round t) (reopen all) ()
    done;
    (* (b) failpoint kills across the migration windows, with a skip that
       walks the kill along the move stream; each round one of the three
       pre-flip windows also faces a second crash inside recovery's
       resume.  The stream's length depends on how many keys sit on the
       source's moving slots, so when a batch-site skip outlives the
       stream the split just completes — hold it to the clean-split oracle
       and re-arm shallower (then on other sources) instead of failing;
       the unconditional windows must still fire first try *)
    List.iteri
      (fun si site ->
        let rec attempt skip tries =
          let all, db = fresh () in
          let src = draw r nshards in
          if
            not
              (crash_step r ~always:false all (window site skip src) (fun () ->
                   split db all src))
          then begin
            oracle r
              (Printf.sprintf "round %d %s unfired at skip %d" round site skip)
              db ~epoch:1 ();
            if skip > 0 then attempt (skip - 1) tries
            else if batch_site site && tries < nshards then attempt 0 (tries + 1)
            else fail r "round %d: %s did not fire" round site
          end
          else begin
            let what = Printf.sprintf "round %d %s" round site in
            let resumes = si < 3 in
            let reopened =
              if resumes && si = round mod 3 then begin
                let fired, db =
                  recover_crashed r all
                    (Kill ("sharded.migrate.resumed", 0, Some src))
                    (fun () -> reopen all)
                in
                if not fired then
                  fail r "%s: recovery resume window did not fire" what;
                db
              end
              else reopen all
            in
            oracle r what reopened ~epoch:1 ();
            (* the crashed split and the recovery that finished it *)
            let both c =
              counted (SD.counters db) c + counted (SD.counters reopened) c
            in
            if resumes && counted (SD.counters reopened) Migrations_resumed < 1
            then fail r "%s: recovery never resumed the migration" what;
            let completed = both Migrations_completed in
            if completed <> 1 then
              fail r "%s: %d completions counted, want exactly 1" what completed;
            if both Keys_migrated = 0 then
              fail r "%s: no keys counted as migrated" what
          end
        in
        attempt (if batch_site site then draw r 3 else 0) 0)
      mig_sites;
    (* (c) a racing single-key write fired between the two halves of a move
       batch — durable before the (optional) kill, so it must survive the
       stream, the crash, and the resumed migration.  As in (b), a stream
       shorter than the skip (or a source with no moving keys) leaves the
       window unfired: retry shallower, then on other sources *)
    let kill_after = draw r 2 = 0 in
    let delete_race = draw r 3 = 0 in
    let site = "sharded.migrate.batch_moved" in
    let rec race_attempt skip tries =
      let all, db = fresh () in
      let src = draw r nshards in
      let raced = ref None in
      Fault.arm ~skip site (fun () ->
          (* prefer a key the open window routes to the new shard: its
             write takes the forwarding path.  The seeded keys spread over
             every slot, so one almost always exists; any key keeps the
             race meaningful otherwise. *)
          let rk =
            match
              List.find_opt
                (fun k -> SD.shard_of_key db k = nshards)
                (List.init nkeys key)
            with
            | Some k -> k
            | None -> key (draw r nkeys)
          in
          let v = if delete_race then None else Some "raced" in
          (match v with
           | None -> ignore (SD.delete db rk : bool)
           | Some v -> SD.put db rk v);
          raced := Some (rk, v);
          if kill_after then Pmem.Region.kill all.(src));
      let crashed =
        match split db all src with
        | () -> false
        | exception Pmem.Region.Crash_point -> true
      in
      Fault.disarm ();
      match !raced with
      | None ->
        if skip > 0 then race_attempt (skip - 1) tries
        else if tries < nshards then race_attempt 0 (tries + 1)
        else fail r "round %d: racing window did not fire" round
      | Some racing ->
        if crashed then fired_at r site all else power_off r site all;
        oracle r
          (Printf.sprintf "round %d racing %s%s" round
             (if delete_race then "delete" else "put")
             (if kill_after then "+kill" else ""))
          (reopen all) ~epoch:1 ~racing ()
    in
    race_attempt (draw r 2) 0;
    (* (d) merge: grow, then kill inside a random window of the shrink;
       recovery must land on epoch 2 with the merged shard empty *)
    let all, db = fresh () in
    let born = SD.split_shard db ~source:(draw r nshards) all.(nshards) in
    let site = List.nth mig_sites (draw r 5) in
    let back = draw r nshards in
    (* [completed]: counted by the store that ran the split and the merge,
       plus the reopened one if the merge crashed *)
    let merge_checks what db ~completed =
      oracle r what db ~epoch:2 ();
      for s = 0 to SD.route_slots db - 1 do
        if SD.shard_of_slot db s = born then
          fail r "%s: merged shard still owns slot %d" what s
      done;
      if completed <> 2 then
        fail r "%s: %d completions counted, want exactly 2" what completed
    in
    if
      crash_step r ~always:false all (window site 0 born) (fun () ->
          SD.merge_shards db ~source:born ~target:back)
    then begin
      let reopened = reopen all in
      merge_checks (Printf.sprintf "round %d merge %s" round site) reopened
        ~completed:(completions db + completions reopened)
    end
    else if batch_site site then
      (* only the batch windows can go unvisited, and only when the split
         moved no keys, so the merge streams none back — the merge then
         completed clean and its post-state must hold live *)
      merge_checks (Printf.sprintf "round %d merge %s unfired" round site) db
        ~completed:(completions db)
    else fail r "round %d: merge %s did not fire" round site
  in
  [ ( Printf.sprintf "%d-shard" nshards,
      rotated cfg.policy ~rounds:cfg.rounds
        (("trap" :: mig_sites) @ [ "sharded.migrate.resumed" ]),
      round ) ]

(* ---- quarantine: shard fault isolation and self-healing ---- *)

(* Differential fault-isolation campaign for the per-shard health
   machinery.  Every scenario seeds and settles a victim store plus an
   undamaged control with identical content, rots both twins of a line
   deep inside one shard (never shard 0) at rest, and reopens: the
   classification must file the sick shard as Degraded or Quarantined
   while every healthy slot serves byte-identical to the control, and
   every operation the verdict forbids fails with the typed
   Shard_unavailable naming the sick shard — never a wrong value, never a
   leaked Tx_aborted, never a silent miss.  Repair must then converge:
   with a snapshot on disk the shard is restored and the store returns to
   all-Healthy; without one the supervisor evacuates the salvageable keys
   onto a healthy shard, after which every survivor is served exactly
   once (scan and point reads agree) and the retired verdict survives
   further crash-recoveries.  A third scenario, run once per evacuation
   window, kills a region at the sharded.health.* failpoints — inside
   open's classification, then before the evacuation copies anything or
   after its epoch flip but before reclamation — and requires the rerun
   to reach the same end state. *)
let quarantine_rows ~ptm:_ (module P : PTM) cfg =
  let module SD = Kv.Sharded_db.Make (P) in
  let nshards = cfg.nshards and seed = cfg.seed in
  let evac_sites =
    [ "sharded.health.evacuate_start"; "sharded.health.evacuated" ]
  in
  let nkeys = 48 in
  let key i = Printf.sprintf "qkey%03d" i in
  let value i = Printf.sprintf "qvalue-%04d" i in
  let open_db rs = SD.open_db ~initial_buckets:8 rs in
  (* a settled store: seeded, crashed clean and reopened, so every line is
     durably fenced and at-rest rot is the only damage *)
  let fresh () =
    let rs = shard_regions nshards in
    let db = open_db rs in
    for i = 0 to nkeys - 1 do
      SD.put db (key i) (value i)
    done;
    crash_all rs Pmem.Region.Drop_all;
    (rs, open_db rs)
  in
  (* rot the deepest used line of [sick] — both twins for a twin-copy
     engine, the single image otherwise: unrepairable damage that still
     leaves the engine mountable *)
  let rot r db rs sick =
    match (SD.media_spans db).(sick) with
    | (mbase, mspan) :: rest ->
      let ls = Pmem.Region.line_size rs.(sick) in
      let delta = mspan - ls in
      Pmem.Region.corrupt_line rs.(sick) ~line:((mbase + delta) / ls);
      (match rest with
       | (bbase, _) :: _ ->
         Pmem.Region.corrupt_line rs.(sick) ~seed:99 ~line:((bbase + delta) / ls)
       | [] -> ())
    | [] -> fail r "shard %d reported no media spans" sick
  in
  (* a fresh store, saved to snapshot files at [base] if given, then with
     [sick] rotted, powered off *)
  let rotted r ?base label sick =
    let rs, db = fresh () in
    Option.iter (SD.save_to_files db) base;
    rot r db rs sick;
    power_off r ("rot." ^ label) rs;
    rs
  in
  let setup r =
    (* the undamaged control; its routing doubles as the pre-damage
       routing oracle (the victim is built identically) *)
    let _, control = fresh () in
    let evacs = ref 0 and restores = ref 0 in
    (* (a)+(b): healthy slots byte-identical to the control; operations the
       sick shard's verdict forbids refused with the typed error *)
    let availability what db ~sick =
      (match SD.health db sick with
       | Kv.Sharded_db.Healthy -> fail r "%s: rot left shard %d Healthy" what sick
       | _ -> ());
      for i = 0 to nkeys - 1 do
        let k = key i in
        let want = SD.get control k in
        if SD.shard_of_key db k <> sick then begin
          match SD.get db k with
          | got -> if got <> want then fail r "%s: healthy slot %s diverged" what k
          | exception e ->
            fail r "%s: healthy slot %s raised %s" what k (Printexc.to_string e)
        end
        else begin
          (match SD.get db k with
           | got -> (
             match SD.health db sick with
             | Kv.Sharded_db.Quarantined _ ->
               fail r "%s: quarantined slot %s served %s" what k
                 (match got with None -> "a miss" | Some _ -> "a value")
             | _ ->
               if got <> want then fail r "%s: degraded read %s diverged" what k)
           | exception Kv.Sharded_db.Shard_unavailable { shard; _ } -> (
             if shard <> sick then
               fail r "%s: %s blamed shard %d, not %d" what k shard sick;
             match SD.health db sick with
             | Kv.Sharded_db.Degraded _ ->
               fail r "%s: degraded read %s refused" what k
             | _ -> ())
           | exception Pmem.Region.Media_error _ -> (
             (* a Degraded shard surfaces an actually lost line as the typed
                media error; a Quarantined one must not be read *)
             match SD.health db sick with
             | Kv.Sharded_db.Quarantined _ ->
               fail r "%s: quarantined slot %s leaked Media_error" what k
             | _ -> ())
           | exception e ->
             fail r "%s: sick slot %s leaked %s" what k (Printexc.to_string e));
          match SD.put db k "must-not-land" with
          | () -> fail r "%s: write to sick shard %d was accepted" what sick
          | exception Kv.Sharded_db.Shard_unavailable { shard; _ } ->
            if shard <> sick then
              fail r "%s: write to %s blamed shard %d" what k shard
          | exception e ->
            fail r "%s: write to sick shard leaked %s" what (Printexc.to_string e)
        end
      done;
      (* a healthy-slot write must still land (and is restored, so later
         byte-identity checks stay meaningful) *)
      (match
         List.find_opt
           (fun k -> SD.shard_of_key db k <> sick)
           (List.rev (List.init nkeys key))
       with
       | Some k -> (
         SD.put db k "touched";
         if SD.get db k <> Some "touched" then
           fail r "%s: healthy-slot write did not land" what;
         match SD.get control k with
         | Some v -> SD.put db k v
         | None -> ignore (SD.delete db k : bool))
       | None -> fail r "%s: every key routed to the sick shard" what);
      if counted (SD.counters db) Unavailable_rejections = 0 then
        fail r "%s: probes ticked no unavailable_rejections" what
    in
    (* (c): the end state after repair — either all-Healthy with full
       byte-identity, or a retired (evacuated) shard with every survivor
       served exactly once *)
    let converged what db ~sick =
      (match SD.check db with
       | Ok () -> ()
       | Error e -> fail r "%s: check: %s" what e);
      match SD.health db sick with
      | Kv.Sharded_db.Healthy ->
        for i = 0 to nkeys - 1 do
          let k = key i in
          if SD.get db k <> SD.get control k then
            fail r "%s: repaired store diverged at %s" what k
        done
      | Kv.Sharded_db.Quarantined (Kv.Sharded_db.Evacuated { target }) -> (
        for s = 0 to SD.route_slots db - 1 do
          if SD.shard_of_slot db s = sick then
            fail r "%s: slot %d still routed to the evacuated shard" what s
        done;
        (match SD.health db target with
         | Kv.Sharded_db.Healthy -> ()
         | _ -> fail r "%s: evacuation target %d is not healthy" what target);
        let seen = Hashtbl.create 64 in
        SD.iter db (fun k _ ->
            if Hashtbl.mem seen k then fail r "%s: scan served %s twice" what k;
            Hashtbl.replace seen k ());
        for i = 0 to nkeys - 1 do
          let k = key i in
          match SD.get db k with
          | Some v ->
            if Some v <> SD.get control k then
              fail r "%s: survivor %s diverged" what k;
            if not (Hashtbl.mem seen k) then
              fail r "%s: get serves %s but the scan missed it" what k
          | None ->
            (* lost to the rotten line: acceptable only for a key that lived
               on the evacuated shard *)
            if SD.shard_of_key control k <> sick then
              fail r "%s: lost healthy-shard key %s" what k;
            if Hashtbl.mem seen k then
              fail r "%s: scan serves the dropped key %s" what k
          | exception e ->
            fail r "%s: %s raised %s after evacuation" what k
              (Printexc.to_string e)
        done;
        (* a write to a formerly-sick key lands on the adopting shard *)
        let k = key 0 in
        SD.put db k "post-evac";
        if SD.get db k <> Some "post-evac" then
          fail r "%s: post-evacuation write lost" what;
        match SD.get control k with
        | Some v -> SD.put db k v
        | None -> ignore (SD.delete db k : bool))
      | _ -> fail r "%s: repair did not converge (shard %d still sick)" what sick
    in
    fun round ->
      let salt = round * 31 in
      let sick = 1 + ((seed + round) mod (nshards - 1)) in
      (* (A) degraded shard with a snapshot on disk: restore, all-Healthy *)
      let base =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "crashtest-quarantine-%d-%d" seed round)
      in
      let rs = rotted r ~base "restore" sick in
      let db = open_db rs in
      let what = Printf.sprintf "round %d restore" round in
      availability what db ~sick;
      let outcomes = SD.repair ~seed:(seed + salt) ~snapshot_base:base db in
      (match List.assoc_opt sick outcomes with
       | Some SD.Snapshot_restored -> incr restores
       | Some SD.Scrub_repaired -> ()
       | o ->
         fail r "%s: repair returned %s" what
           (match o with
            | None -> "no verdict for the sick shard"
            | Some (SD.Evacuated_keys _) -> "an evacuation, snapshot ignored"
            | _ -> "Unrepaired"));
      converged what db ~sick;
      Array.iteri
        (fun i _ ->
          let path = Pmem.Region.shard_snapshot_path base ~shard:i in
          if Sys.file_exists path then Sys.remove path)
        rs;
      (* (B) same damage, no snapshot: the supervisor evacuates *)
      let rs = rotted r "evacuate" sick in
      let db = open_db rs in
      let what = Printf.sprintf "round %d evacuate" round in
      availability what db ~sick;
      (match List.assoc_opt sick (SD.repair ~seed:(seed + salt + 1) db) with
       | Some (SD.Evacuated_keys { target = _; moved }) ->
         incr evacs;
         let st = SD.counters db in
         if counted st Shards_evacuated = 0 then
           fail r "%s: shards_evacuated did not tick" what;
         let keys = counted st Keys_evacuated in
         if keys <> moved then
           fail r "%s: keys_evacuated=%d but the verdict moved %d" what keys moved
       | Some SD.Scrub_repaired -> ()
       | Some SD.Snapshot_restored -> fail r "%s: restored without a snapshot" what
       | Some (SD.Unrepaired _) | None ->
         fail r "%s: supervisor gave up on an evacuable shard" what);
      converged what db ~sick;
      if SD.pending_intents db <> 0 then
        fail r "%s: records left hooked after evacuation" what;
      (* the retired verdict and the surviving keys are durable *)
      power_off r "evacuated" rs;
      converged (what ^ " reopened") (open_db rs) ~sick;
      (* (C) per evacuation window: kill shard 0, the anchor the verdict is
         persisted to, while open_db files it; then kill a region before
         the evacuation copies anything durable, or after its epoch flip
         but before reclamation *)
      List.iteri
        (fun wi site ->
          let rs = rotted r site sick in
          let fired, db =
            recover_crashed r rs
              (Kill ("sharded.health.degraded", 0, Some 0))
              (fun () -> open_db rs)
          in
          if not fired then
            fail r "round %d: sharded.health.degraded did not fire" round;
          availability (Printf.sprintf "round %d health crash" round) db ~sick;
          ignore
            (crash_step r rs
               (Kill (site, 0, Some (draw r nshards)))
               (fun () -> ignore (SD.repair ~seed:(seed + salt + 2 + wi) db)));
          let db = open_db rs in
          let what = Printf.sprintf "round %d %s" round site in
          (match SD.health db sick with
           | Kv.Sharded_db.Healthy -> fail r "%s: reopen lost the verdict" what
           | Kv.Sharded_db.Quarantined (Kv.Sharded_db.Evacuated _) ->
             (* the flip landed before the kill; recovery finished the job *)
             ()
           | _ -> (
             (* nothing durable yet: the rerun must converge *)
             match List.assoc_opt sick (SD.repair ~seed:(seed + salt + 3) db) with
             | Some (SD.Evacuated_keys _) | Some SD.Scrub_repaired -> ()
             | _ -> fail r "%s: rerun repair did not converge" what));
          converged what db ~sick;
          if SD.pending_intents db <> 0 then
            fail r "%s: records left hooked after a crashed repair" what)
        evac_sites;
      if round = cfg.rounds then begin
        if !restores = 0 then fail r "snapshot-restore path never exercised";
        if !evacs = 0 then fail r "evacuation path never exercised"
      end
  in
  (* every power-off above runs once a round *)
  let rots = List.map (( ^ ) "rot.") ("restore" :: "evacuate" :: evac_sites) in
  [ ( Printf.sprintf "%d-shard" nshards,
      rotated cfg.policy ~rounds:cfg.rounds
        (("sharded.health.degraded" :: evac_sites)
        @ List.map (( ^ ) "off:") ("evacuated" :: rots)),
      setup ) ]

(* ---- group: the async group-commit front-end ---- *)

(* Crash campaign for the async group-commit front-end (Group_commit):
   per round and per ack mode (Sync / Batch_sync / Async, window 4 so a
   short stream spans several drain windows), a stream of single-key puts
   runs with an instruction trap armed on a random shard's region, then
   the machine powers off and the raw sharded store is reopened.  The
   oracle: every entry below the front-end's durability watermark (read
   after the crash — the watermark only advances once a window's engine
   transaction has committed) must survive with its exact value, the
   survivors on every shard queue must form a clean prefix of the
   submission order (a window settles as one engine transaction, so a
   lost entry can never be followed by a durable one), and no key may
   ever come back torn.  In Sync mode every put that returned is below
   the watermark, which is the "acked-Sync writes survive any crash"
   guarantee.  Cross-shard batches get the same treatment on the cross
   queue, plus a clean-path determinism check per round: three batches
   submitted back-to-back must settle as ONE shared intent (one
   coordinator flip, two merged intents) in the deferred-ack modes and as
   three separate flips under per-tx Sync.  Each round also crashes the
   recovery of a crashed stream, at a trap placed inside the work an
   identical control's recovery measures. *)
let group_rows ~ptm:_ (module P : PTM) cfg =
  let module SD = Kv.Sharded_db.Make (P) in
  let module F = Kv.Group_commit.Make (P) in
  let nshards = cfg.nshards in
  let base_key i = Printf.sprintf "base%02d" i in
  let modes =
    [ ("sync", Kv.Group_commit.Sync);
      ("batch", Kv.Group_commit.Batch_sync { txs = 3; bytes = 1 lsl 16 });
      ("async", Kv.Group_commit.Async) ]
  in
  (* a seeded store under a front-end (window 4, so a short stream spans
     several drain windows), and the per-shard queues of the single-key
     stream it will run, in submission order *)
  let fresh ack () =
    let rs = shard_regions nshards in
    let db = SD.open_db ~initial_buckets:8 rs in
    for i = 0 to 7 do
      SD.put db (base_key i) "settled"
    done;
    (rs, (db, F.attach ~window:4 ~ack db, Array.make nshards []))
  in
  (* a stream of [n] single-key puts; [last] is the shard of the latest *)
  let stream ?(last = ref 0) ~n ~tag (db, fe, subs) =
    for i = 0 to n - 1 do
      let k = Printf.sprintf "g%03d" i in
      let v = Printf.sprintf "%s-%d" tag i in
      let s = SD.shard_of_key db k in
      subs.(s) <- (k, v) :: subs.(s);
      last := s;
      F.put fe k v
    done;
    F.flush fe
  in
  (* The durable floor per queue: the watermark minus the queue's
     settled-with-failure entries — the deferred ones from {!F.failures}
     (retained when the drain raised) plus [failed].  The watermark counts
     every settled entry, and on the dead region a whole window settles as
     failures, but everything that settled with a value committed its
     engine transaction before the power-off and must come back. *)
  let floors fe failed =
    List.iter (fun (qi, _, _) -> failed.(qi) <- failed.(qi) + 1) (F.failures fe);
    Array.init (nshards + 1) (fun s -> max 0 (F.watermark fe s - failed.(s)))
  in
  (* three keys on one shard and three on another, so every cross batch
     really spans two participants *)
  let cross_keys db =
    let probe i = Printf.sprintf "x%03d" i in
    let sa = SD.shard_of_key db (probe 0) in
    let rec collect i ~on n acc =
      if n = 0 then List.rev acc
      else if i > 999 then failwith "group campaign: key space too small"
      else if (SD.shard_of_key db (probe i) = sa) = on then
        collect (i + 1) ~on (n - 1) (probe i :: acc)
      else collect (i + 1) ~on n acc
    in
    List.combine (collect 0 ~on:true 3 []) (collect 0 ~on:false 3 [])
  in
  let cross fe pairs va vb =
    List.iteri
      (fun j (a, b) ->
        F.write_batch fe (fun db ->
            SD.put db a (va j);
            SD.put db b (vb j)))
      pairs;
    F.flush fe
  in
  let round r round =
    let reopen what rs =
      let db = SD.open_db ~initial_buckets:8 rs in
      (match SD.check db with
       | Ok () -> ()
       | Error e -> fail r "%s: check: %s" what e);
      if SD.pending_intents db <> 0 then
        fail r "%s: records left hooked after recovery" what;
      db
    in
    (* Survivors of each shard queue (submission order) must be a prefix
       no shorter than its durable floor, with exact values — never a torn
       or re-ordered suffix. *)
    let check_streams what db floors subs =
      for s = 0 to nshards - 1 do
        let what = Printf.sprintf "%s shard %d" what s in
        let subs = Array.of_list (List.rev subs.(s)) in
        let n = Array.length subs in
        let rec cut i =
          if i < n && SD.get db (fst subs.(i)) = Some (snd subs.(i)) then
            cut (i + 1)
          else i
        in
        let c = cut 0 in
        if c < floors.(s) then
          fail r "%s: %d entries durable before the crash but only %d survived"
            what floors.(s) c;
        for i = c to n - 1 do
          let k, _ = subs.(i) in
          match SD.get db k with
          | None -> ()
          | Some got ->
            fail r "%s: suffix entry %s survived (%S) beyond the cut %d" what k
              got c
        done;
        for i = 0 to 7 do
          if SD.get db (base_key i) <> Some "settled" then
            fail r "%s: lost settled key %s" what (base_key i)
        done
      done
    in
    List.iter
      (fun (mname, ack) ->
        let what = Printf.sprintf "round %d %s" round mname in
        (* (a) single-key stream crashed mid-drain; in Sync mode the
           raising put itself settled with its failure (answered to the
           submitter, never deferred) *)
        let rs, ((_, fe, subs) as st) = fresh ack () in
        let last = ref 0 in
        let failed = Array.make (nshards + 1) 0 in
        if
          crash_step r rs
            (Trap (draw r nshards, 1 + draw r 600))
            (fun () -> stream ~last ~n:24 ~tag:(Printf.sprintf "sv%d" round) st)
          && ack = Kv.Group_commit.Sync
        then failed.(!last) <- 1;
        check_streams (what ^ " stream")
          (reopen (what ^ " stream") rs)
          (floors fe failed) subs;
        (* (b) clean cross-batch merge: the shared-intent determinism *)
        let _, (db, fe, _) = fresh ack () in
        let pairs = cross_keys db in
        let flips0 = counted (SD.counters db) Coordinator_flips in
        cross fe pairs (Printf.sprintf "ca%d") (Printf.sprintf "cb%d");
        let flips = counted (SD.counters db) Coordinator_flips - flips0 in
        let merged =
          Kv.Group_commit.Counters.get (F.counters fe) Merged_intents
        in
        (match ack with
         | Kv.Group_commit.Sync ->
           if flips <> 3 || merged <> 0 then
             fail r "%s: per-tx sync batches flips=%d merged=%d (want 3/0)"
               what flips merged
         | _ ->
           if flips <> 1 || merged <> 2 then
             fail r "%s: merged batches flips=%d merged=%d (want 1/2)" what
               flips merged);
        List.iteri
          (fun j (a, b) ->
            if SD.get db a <> Some (Printf.sprintf "ca%d" j)
               || SD.get db b <> Some (Printf.sprintf "cb%d" j)
            then fail r "%s: clean cross batch %d not applied" what j)
          pairs;
        (* (c) cross batches crashed mid-protocol: all-or-nothing per
           batch, prefix over the cross queue *)
        let rs, (db, fe, _) = fresh ack () in
        let pairs = cross_keys db in
        let va = Printf.sprintf "ka%d-%d" round
        and vb = Printf.sprintf "kb%d-%d" round in
        let failed = Array.make (nshards + 1) 0 in
        if
          crash_step r rs
            (Trap (draw r nshards, 1 + draw r 400))
            (fun () -> cross fe pairs va vb)
          && ack = Kv.Group_commit.Sync
        then failed.(nshards) <- 1;
        let cfloor = (floors fe failed).(nshards) in
        let db = reopen (what ^ " cross") rs in
        let applied =
          List.mapi
            (fun j (a, b) ->
              let ga = SD.get db a = Some (va j)
              and gb = SD.get db b = Some (vb j) in
              if ga <> gb then fail r "%s: cross batch %d half-applied" what j;
              ga && gb)
            pairs
        in
        let rec cut i = function
          | true :: rest -> cut (i + 1) rest
          | rest ->
            if List.mem true rest then
              fail r "%s: cross suffix batch survived beyond the cut" what;
            i
        in
        let c = cut 0 applied in
        if c < cfloor then
          fail r
            "%s: %d cross batches durable before the crash but only %d survived"
            what cfloor c)
      modes;
    (* (d) crash the recovery of a crashed stream itself: reopening after
       a second power-off must converge to the same prefix contract *)
    let what = Printf.sprintf "round %d rec-crash" round in
    let (_, fe, subs), db =
      crash_in_recovery r ~fresh:(fresh Kv.Group_commit.Async)
        ~op:(stream ~n:16 ~tag:(Printf.sprintf "rv%d" round))
        ~recover:(fun ~control:_ rs _ -> reopen what rs)
        (draw r nshards)
    in
    check_streams what db (floors fe (Array.make (nshards + 1) 0)) subs
  in
  [ ( Printf.sprintf "%d-shard" nshards,
      rotated cfg.policy ~rounds:cfg.rounds [ "recovery-trap" ],
      round ) ]

(* ---- the campaign table ---- *)

type campaign = {
  name : string;
  min_shards : int;  (** 0: the campaign refuses --shards *)
  reads : string list;  (** the optional flags it reads *)
  rows :
    ptm:string ->
    (module PTM) ->
    cfg ->
    (string * (string * string) list * (run -> int -> unit)) list;
      (** per row: its label, the (site, policy) pairs it must fire, and
          its setup, which returns the per-round body *)
}

let campaigns =
  let sharded = [ "shards"; "policy" ] in
  [ { name = "crash"; min_shards = 0; rows = crash_rows;
      reads = [ "workload"; "policy"; "recovery-crashes"; "failpoint" ] };
    { name = "inject"; min_shards = 0; rows = inject_rows;
      reads = [ "workload"; "failpoint" ] };
    { name = "scrub"; min_shards = 0; rows = scrub_rows;
      reads = [ "workload"; "rot-rates" ] };
    { name = "sharded"; min_shards = 2; rows = batch_rows ~chunked:false;
      reads = sharded };
    { name = "chunked"; min_shards = 2; rows = batch_rows ~chunked:true;
      reads = sharded };
    { name = "migrate"; min_shards = 2; rows = migrate_rows; reads = sharded };
    { name = "quarantine"; min_shards = 2; rows = quarantine_rows;
      reads = sharded };
    { name = "group"; min_shards = 2; rows = group_rows; reads = sharded } ]

(* Run one row: its rounds, then its required pairs.  Prints the row with
   its wall time and fired pairs; returns whether it passed.  An exception
   escaping a round fails the row: every failpoint is disarmed ([armed]
   has cleared the traps), the row's remaining rounds and its pair check
   are skipped, and the later rows still run. *)
let run_row cfg ~campaign ~ptm (label, required, setup) =
  Printf.printf "%-6s x %s %s: %!" ptm campaign label;
  let t0 = Workload.Bench_clock.now_ns () in
  let r = start ~seed:cfg.seed ~policy:cfg.policy ~rounds:cfg.rounds in
  let round = setup r in
  let rec rounds i =
    i > cfg.rounds
    ||
    match round i with
    | () ->
      if cfg.verbose then
        Printf.printf "  ... %d/%d rounds, %d crashes (%d inside recovery)\n%!"
          i cfg.rounds r.crashes r.rec_crashes;
      rounds (i + 1)
    | exception e ->
      Fault.disarm ();
      fail r "round %d: uncaught %s" i (Printexc.to_string e);
      false
  in
  if rounds 1 then
    List.iter
      (fun (site, p) ->
        if not (Hashtbl.mem r.pairs (site, p)) then
          fail r "%s campaign, %s: required pair %s/%s did not fire" campaign
            ptm site p)
      required;
  let secs = (Workload.Bench_clock.now_ns () -. t0) /. 1e9 in
  let tallies =
    String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf ", %d %s" v k) r.tallies)
  in
  if r.failures = [] then
    Printf.printf "OK (%d rounds, %d crashes, %d inside recovery%s; %.2f s)\n"
      cfg.rounds r.crashes r.rec_crashes tallies secs
  else begin
    Printf.printf "FAILED (%d issues; %.2f s)\n" (List.length r.failures) secs;
    List.iter (Printf.printf "    %s\n") (List.rev r.failures)
  end;
  let pairs =
    List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) r.pairs [])
  in
  if pairs <> [] then
    Printf.printf "    fired: %s\n"
      (String.concat " " (List.map (fun (site, p) -> site ^ "/" ^ p) pairs));
  flush stdout;
  r.failures = []

(* ---- command line ---- *)

let campaign_arg =
  let doc =
    "Campaign to run: $(b,crash) (the default: the list/tree/map workload \
     under crashes), $(b,inject) (exception injection at every \
     raise-capable site, asserting the abort contract), $(b,scrub) (media \
     rot at rest, differential against an uncorrupted control, plus \
     crashes in the repair window), $(b,sharded) (a cross-shard batch \
     crashed in every presumed-abort window and inside recovery), \
     $(b,chunked) (the same with multi-chunk mirror chains and spilled \
     undo images), $(b,migrate) (online shard split/merge), \
     $(b,quarantine) (shard fault isolation and repair) or $(b,group) (the \
     group-commit front-end).  The last five need --shards >= 2.  A flag \
     the campaign does not read is refused."
  in
  Arg.(
    value
    & opt (enum (List.map (fun c -> (c.name, c)) campaigns)) (List.hd campaigns)
    & info [ "campaign" ] ~docv:"CAMPAIGN" ~doc)

let ptm_arg =
  let doc = "PTM to test: rom, romL, romLR, mne, pmdk, or all." in
  Arg.(value & opt string "all" & info [ "ptm" ] ~docv:"PTM" ~doc)

let workload_arg =
  let doc = "Workload of crash, inject and scrub: list, tree, map, or all." in
  Arg.(value & opt (some string) None & info [ "workload" ] ~docv:"W" ~doc)

let rounds_arg =
  let doc = "Rounds per row." in
  Arg.(value & opt int 200 & info [ "rounds" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "PRNG seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let policy_arg =
  let doc =
    "Cache-line fate policy at each power-off: drop (no unfenced line \
     persists), keep (every one does), random (per-line coin), torn \
     (per-8-byte-word coin — the torn-word adversary), or mix (the \
     default: a site's k-th firing takes the k-th policy of drop, keep, \
     random, torn)."
  in
  Arg.(
    value
    & opt
        (some
           (enum
              [ ("drop", `Drop); ("keep", `Keep); ("random", `Random);
                ("torn", `Torn); ("mix", `Mix) ]))
        None
    & info [ "policy" ] ~docv:"POLICY" ~doc)

let recovery_crashes_arg =
  let doc =
    "Crash the recovery itself up to $(docv) levels deep after every \
     injected crash (recovery must be idempotent)."
  in
  Arg.(value & opt (some int) None & info [ "recovery-crashes" ] ~docv:"K" ~doc)

let failpoint_arg =
  let doc =
    "Arm the named failpoint site instead of the instruction-counting trap \
     (crash), or sweep only that raise-capable site (inject); see \
     --list-failpoints for the registered names."
  in
  Arg.(value & opt (some string) None & info [ "failpoint" ] ~docv:"SITE" ~doc)

let rot_rates_arg =
  let doc =
    "Comma-separated per-line rot probabilities for the scrub campaign \
     (default 0.002,0.01,0.05)."
  in
  Arg.(
    value & opt (some string) None & info [ "rot-rates" ] ~docv:"R1,R2,.." ~doc)

let shards_arg =
  let doc = "Hash shards of the sharded campaigns' stores." in
  Arg.(value & opt (some int) None & info [ "shards" ] ~docv:"N" ~doc)

let list_failpoints_arg =
  let doc =
    "Print every registered failpoint site (raise-capable ones marked) and \
     exit."
  in
  Arg.(value & flag & info [ "list-failpoints" ] ~doc)

let verbose_arg =
  let doc = "Progress output." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let refuse fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("crashtest: " ^ s);
      exit 2)
    fmt

let main c ptm workload rounds seed policy recovery_crashes failpoint rot_rates
    nshards list_failpoints verbose =
  if list_failpoints then begin
    List.iter
      (fun s ->
        if Fault.can_raise s then Printf.printf "%s  [raise-capable]\n" s
        else print_endline s)
      (Fault.sites ());
    exit 0
  end;
  List.iter
    (fun (flag, given) ->
      if given && not (List.mem flag c.reads) then
        refuse "--%s is not read by the %s campaign" flag c.name)
    [ ("workload", workload <> None); ("policy", policy <> None);
      ("recovery-crashes", recovery_crashes <> None);
      ("failpoint", failpoint <> None); ("rot-rates", rot_rates <> None);
      ("shards", nshards <> None) ];
  let nshards = Option.value nshards ~default:0 in
  if nshards < c.min_shards then
    refuse "the %s campaign needs --shards >= %d" c.name c.min_shards;
  let listed sites = String.concat "" (List.map (( ^ ) "\n  ") sites) in
  (match failpoint with
   | Some site when not (Fault.is_site site) ->
     refuse "unknown failpoint %S; registered sites:%s" site
       (listed (Fault.sites ()))
   | Some site when c.name = "inject" && not (Fault.can_raise site) ->
     refuse "site %S is not raise-capable; sweepable sites:%s" site
       (listed (Fault.raise_sites ()))
   | _ -> ());
  let selected_ptms =
    if ptm = "all" then ptms
    else
      match List.assoc_opt ptm ptms with
      | Some m -> [ (ptm, m) ]
      | None -> refuse "unknown PTM %s" ptm
  in
  let workloads =
    let all = [ ("list", `List); ("tree", `Tree); ("map", `Map) ] in
    match Option.value workload ~default:"all" with
    | "all" -> all
    | w when List.mem_assoc w all -> [ (w, List.assoc w all) ]
    | w -> refuse "unknown workload %s" w
  in
  let rot_rates =
    let s = Option.value rot_rates ~default:"0.002,0.01,0.05" in
    match
      List.map float_of_string
        (List.filter (fun s -> s <> "") (String.split_on_char ',' s))
    with
    | [] -> refuse "--rot-rates must name at least one rate"
    | l -> l
    | exception Failure _ -> refuse "unparsable --rot-rates %S" s
  in
  let cfg =
    { rounds; seed; policy = Option.value policy ~default:`Mix; workloads;
      recovery_crashes = Option.value recovery_crashes ~default:0; failpoint;
      rot_rates; nshards; verbose }
  in
  let ok =
    List.fold_left
      (fun ok (pname, m) ->
        List.fold_left
          (fun ok row -> run_row cfg ~campaign:c.name ~ptm:pname row && ok)
          ok (c.rows ~ptm:pname m cfg))
      true selected_ptms
  in
  if not ok then exit 1

let cmd =
  let doc = "crash-injection campaigns against the Romulus PTMs" in
  let info = Cmd.info "crashtest" ~doc in
  Cmd.v info
    Term.(
      const main $ campaign_arg $ ptm_arg $ workload_arg $ rounds_arg $ seed_arg
      $ policy_arg $ recovery_crashes_arg $ failpoint_arg $ rot_rates_arg
      $ shards_arg $ list_failpoints_arg $ verbose_arg)

let () =
  Printexc.register_printer (function
    | Kv.Sharded_db.Shard_open_failed { shard; cause } ->
      Some
        (Printf.sprintf "Sharded_db.Shard_open_failed { shard = %d; cause = %s }"
           shard (Printexc.to_string cause))
    | Kv.Sharded_db.Shard_unavailable { shard; _ } ->
      Some (Printf.sprintf "Sharded_db.Shard_unavailable { shard = %d }" shard)
    | _ -> None);
  exit (Cmd.eval cmd)
