(* Per-shard health (stated in [sharded_db.mli] and CORRECTNESS §14) and
   the only writer of the verdicts: their durable record in shard 0, the
   per-shard open and recovery fan-out that classify them, scrub, and
   the R1/R2/R3 repair ladder. *)

open Shard_state

(* health windows: after a shard's health transition is observed (its
   durable record may lag by one shard-0 transaction — recomputed
   deterministically at the next open either way), and after each
   shard's recovery in the fan-out *)
let fp_health_degraded = Fault.site "sharded.health.degraded"
let fp_health_quarantined = Fault.site "sharded.health.quarantined"
let fp_health_repaired = Fault.site "sharded.health.repaired"
let fp_recover_shard_done = Fault.site "sharded.recover.shard_done"

type repair_outcome =
  | Scrub_repaired
  | Snapshot_restored
  | Evacuated_keys of { target : int; moved : int }
  | Unrepaired of health_cause

(* The verdict on a shard from its salvage open or recovery: the
   data-loss lines its scrub tolerated (Degraded when any), or what it
   raised; [other] takes an exception no verdict covers. *)
let verdict ~doing ~other = function
  | Ok [] -> Healthy
  | Ok ((offset, state) :: _) -> Degraded (Unrepairable_media { offset; state })
  | Error (Romulus.Engine.Unrepairable { offset; state }) ->
    Quarantined (Unrepairable_media { offset; state })
  | Error (Romulus.Engine.Recovery_error msg) -> Quarantined (Open_failed msg)
  | Error (Pmem.Region.Media_error { offset; _ }) ->
    Quarantined
      (Open_failed (Printf.sprintf "media error at offset %d %s" offset doing))
  | Error e -> other e

module Make (P : SHARD_PTM) = struct
  module St = Shard_state.Make (P)
  open St

  (* count a transition into a verdict; returns the verdict's failpoint *)
  let count_health t = function
    | Healthy ->
      tick t Health_repaired 1;
      fp_health_repaired
    | Degraded _ ->
      tick t Health_degraded 1;
      fp_health_degraded
    | Quarantined _ ->
      tick t Health_quarantined 1;
      fp_health_quarantined

  (* ---- durable health record (shard 0) ----

     The record is a cache of deterministically recomputable verdicts
     (media rot is persistent), with one exception: [Quarantined
     (Evacuated _)] is authoritative — an evacuated shard's residual
     bytes may even scrub clean, but its keys live on the target now, so
     the verdict must survive reopen. *)
  let write_record p0 t = R.Health.write p0 t.health_arr

  let persist_health t =
    let p0 = (raw t 0).p in
    P.update_tx p0 (fun () -> write_record p0 t)

  (* Record a health transition: volatile verdict, counter, failpoint.
     Callers batch several transitions under one [persist_health]; a
     crash between the failpoint and the durable write converges:
     verdicts are recomputed at the next open. *)
  let set_health t i h =
    if t.health_arr.(i) <> h then begin
      t.health_arr.(i) <- h;
      Fault.hit (count_health t h)
    end

  (* The evacuated verdict of [source], volatile and counted; the
     evacuation persists it in its own flip transaction. *)
  let retire t source ~target =
    let verdict = Quarantined (Evacuated { target }) in
    t.health_arr.(source) <- verdict;
    ignore (count_health t verdict : Fault.site)

  let add_shard t = t.health_arr <- Array.append t.health_arr [| Healthy |]

  (* Mount an engine over [region] and open its key map.  The open's
     own salvage recovery scrub is the shard's one media pass; the
     data-loss lines it tolerated come back with the shard. *)
  let mount ~initial_buckets region =
    let p, lost = P.open_salvage region in
    let map = Map_.open_or_create ~initial_buckets p ~root:R.db_root in
    ({ p; map; region }, lost)

  (* Per-shard open + classification.  Opening runs engine recovery in
     salvage mode, so content damage surfaces here: a shard whose engine
     mounts is Healthy or Degraded by the data-loss lines that
     recovery's own scrub tolerated (read once, not re-scrubbed); a shard
     whose engine refuses to mount is quarantined with a typed cause —
     except shard 0, which anchors the routing table and the health
     record: without it there is no store to degrade, so its failure is
     the typed fatal {!Shard_open_failed}.  Then the durable record is
     merged: every verdict above was freshly recomputed from the media
     (rot is persistent), so only the non-recomputable [Evacuated]
     verdict is taken from disk. *)
  let open_shards t =
    let n = shards t in
    let verdict =
      verdict ~doing:"while opening" ~other:(fun e ->
          Quarantined (Open_failed (Printexc.to_string e)))
    in
    for i = 0 to n - 1 do
      match mount ~initial_buckets:t.config.initial_buckets t.region_arr.(i) with
      | s, lost ->
        t.shard_arr.(i) <- Some s;
        t.health_arr.(i) <- verdict (Ok lost)
      | exception (Pmem.Region.Crash_point as e) -> raise e
      | exception e when i = 0 ->
        raise (Shard_open_failed { shard = 0; cause = e })
      | exception e -> t.health_arr.(i) <- verdict (Error e)
    done;
    let saved =
      Option.value (R.Health.read (raw t 0).p) ~default:(Array.make n Healthy)
    in
    Array.iteri
      (fun i h ->
        match h with
        | Quarantined (Evacuated _) when i < n -> t.health_arr.(i) <- h
        | _ -> ())
      saved;
    Array.iter
      (fun h -> if h <> Healthy then Fault.hit (count_health t h))
      t.health_arr;
    (* refresh the durable record when the medium disagrees with it
       (fresh stores with all shards healthy stay metadata-free) *)
    if saved <> t.health_arr then persist_health t

  (* Per-shard engine recovery (salvage mode), fanned out across a
     bounded pool of domains, classified into health verdicts instead of
     raised: shard 0 failing is fatal ({!Shard_open_failed} — it anchors
     the store), any other failing shard is quarantined with its engine
     detached, and data-loss survivors come back Degraded.  A previously
     recorded [Evacuated] verdict is authoritative and never
     reclassified. *)
  let recover ~parallel t =
    let n = shards t in
    let verdicts = Array.make n None in
    let run i =
      Option.map
        (fun s -> try Ok (P.recover_salvage s.p) with e -> Error e)
        t.shard_arr.(i)
    in
    (* parallel: at most one worker Domain per core, each pulling the
       next shard index until none is left, all joined before any verdict
       is taken; sequential: each shard recovers at its turn.  Either way
       the verdicts are taken in shard order. *)
    let results =
      if parallel && n > 1 then begin
        let results = Array.make n None in
        let next = Atomic.make 0 in
        let rec work () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            results.(i) <- run i;
            work ()
          end
        in
        let workers = min n (Domain.recommended_domain_count ()) in
        List.iter Domain.join (List.init workers (fun _ -> Domain.spawn work));
        fun i -> results.(i)
      end
      else run
    in
    for i = 0 to n - 1 do
      match results i with
      | None -> ()
      | Some v ->
        verdicts.(i) <- Some v;
        Fault.hit fp_recover_shard_done
    done;
    (* a simulated machine crash is the whole store dying, not a shard
       fault; and without shard 0 there is nothing to degrade to *)
    Array.iter
      (function
        | Some (Error Pmem.Region.Crash_point) -> raise Pmem.Region.Crash_point
        | _ -> ())
      verdicts;
    (match verdicts.(0) with
    | Some (Error e) -> raise (Shard_open_failed { shard = 0; cause = e })
    | _ -> ());
    let changed = ref false in
    Array.iteri
      (fun i v ->
        match (v, t.health_arr.(i)) with
        | None, _ | _, Quarantined (Evacuated _) -> ()
        | Some v, prev ->
          let h =
            verdict ~doing:"during recovery" v ~other:(fun e ->
                raise (Shard_open_failed { shard = i; cause = e }))
          in
          (match h with
          | Quarantined _ -> t.shard_arr.(i) <- None
          | Healthy | Degraded _ -> ());
          if prev <> h then begin
            set_health t i h;
            changed := true
          end)
      verdicts;
    if !changed then persist_health t

  let recover_shard t i =
    if i < 0 || i >= shards t then
      invalid_arg (Printf.sprintf "Sharded_db.recover_shard: bad shard %d" i);
    match t.shard_arr.(i) with
    | None ->
      raise
        (Shard_open_failed
           { shard = i;
             cause = Romulus.Engine.Recovery_error "engine is not open" })
    | Some s -> (
      try P.recover s.p with
      | Pmem.Region.Crash_point as e -> raise e
      | e -> raise (Shard_open_failed { shard = i; cause = e }))

  let media_spans t =
    Array.map
      (function None -> [] | Some s -> P.media_spans s.p)
      t.shard_arr

  (* Per-shard salvage scrub reports, one entry per open engine: each
     repaired or tolerated line is attributed to exactly the shard whose
     region holds it. *)
  let scrub_shards t =
    let acc = ref [] in
    Array.iteri
      (fun i so ->
        match so with
        | None -> ()
        | Some s -> acc := (i, P.scrub_salvage s.p) :: !acc)
      t.shard_arr;
    List.rev !acc

  let scrub t =
    List.fold_left
      (fun (acc : Romulus.Engine.scrub_report) (_, r) ->
        { Romulus.Engine.scrubbed = acc.scrubbed + r.Romulus.Engine.scrubbed;
          repaired = acc.repaired + r.repaired;
          unrepairable = acc.unrepairable @ r.unrepairable })
      { Romulus.Engine.scrubbed = 0; repaired = 0; unrepairable = [] }
      (scrub_shards t)

  (* ---- the repair ladder ---- *)

  (* R1: bounded scrub retries under the shared jittered-exponential
     backoff schedule.  Each attempt is one media pass: a detached shard
     is mounted and its open's own scrub decides; an open engine takes
     one salvage scrub.  Succeeds when the pass finds nothing
     unrepairable (rot healed from a twin, or cleared at the source). *)
  let repair_scrub t i ~retries ~base_ns ~seed =
    let attempt ~last:_ =
      tick t Repair_attempts 1;
      match
        match t.shard_arr.(i) with
        | Some s -> (P.scrub_salvage s.p).unrepairable
        | None ->
          let s, lost =
            mount ~initial_buckets:t.config.initial_buckets t.region_arr.(i)
          in
          t.shard_arr.(i) <- Some s;
          lost
      with
      | [] -> Some ()
      | _ -> None
      | exception Pmem.Region.Crash_point -> raise Pmem.Region.Crash_point
      | exception _ -> None
    in
    Option.is_some (backoff_walk ~retries ~base_ns ~seed attempt)

  (* R2: replace the shard's region wholesale from its latest snapshot
     file, validated by a clean salvage scrub (the open's own) before it
     is adopted.  Writes committed to the shard after the snapshot are
     lost — which is why this is strictly a fallback — and any batch the
     store owed the shard is re-settled by the reconciliation replay
     that follows repair. *)
  let repair_restore t i ~snapshot_base =
    match snapshot_base with
    | None -> false
    | Some base -> (
      let path = Pmem.Region.shard_snapshot_path base ~shard:i in
      Sys.file_exists path
      &&
      try
        let region = Pmem.Region.load_from_file path in
        match mount ~initial_buckets:t.config.initial_buckets region with
        | s, [] ->
          t.region_arr.(i) <- region;
          t.shard_arr.(i) <- Some s;
          tick t Repair_snapshot_restores 1;
          true
        | _ -> false
      with
      | Pmem.Region.Crash_point as e -> raise e
      | _ -> false)

  (* The self-healing driver, escalating per sick shard: R1 scrub
     retries, R2 snapshot restore, R3 [evacuate] (the migration's, which
     answers [None] when it does not apply).  All verdict changes are
     persisted in one health record, then [reconcile] re-runs so work
     parked on the sick shards (mirrors, migrations) settles on the
     healed store. *)
  let repair ~retries ~base_ns ~seed ~snapshot_base ~evacuate ~reconcile t =
    let outcomes = ref [] in
    let changed = ref false in
    let healed i outcome =
      set_health t i Healthy;
      changed := true;
      outcome
    in
    for i = 0 to shards t - 1 do
      match t.health_arr.(i) with
      | Healthy | Quarantined (Evacuated _) -> ()
      | Degraded cause | Quarantined cause ->
        let outcome =
          if repair_scrub t i ~retries ~base_ns ~seed:(seed + i) then
            healed i Scrub_repaired
          else if i <> 0 && repair_restore t i ~snapshot_base then
            healed i Snapshot_restored
          else
            match evacuate i with
            | Some (target, moved) ->
              changed := true;
              Evacuated_keys { target; moved }
            | None -> Unrepaired cause
        in
        outcomes := (i, outcome) :: !outcomes
    done;
    if !changed then begin
      persist_health t;
      reconcile ()
    end;
    List.rev !outcomes
end
