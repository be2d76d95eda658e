(* Crash_driver — the crash-injection kit that crashtest's campaigns and
   the test suites share.

   [armed] runs an operation with one injection armed: an instruction
   trap on a region, or a failpoint kill.  [sweep] crashes an operation
   at every trap point in turn.  A campaign row's [run] state owns the
   rng, the line-fate policy of every power-off, the failures, the crash
   counts and the fired (site, policy) pairs; [crash_step],
   [recover_crashed] and [crash_in_recovery] are the steps its rows are
   written in. *)

module R = Pmem.Region

(* ---- injections ---- *)

type inject =
  | Trap of int * int  (** region index, primitives let run first *)
  | Kill of string * int * int option
      (** failpoint site, visits skipped, region index powered off;
          [None] crashes at the site itself *)

let site_of = function Trap _ -> "trap" | Kill (site, _, _) -> site

(* Run [op] with [inj] armed on [rs]: whether it fired, and [op]'s result
   if it returned (a kill past a durability point may let it return).  A
   kill runs [hook] at its site first — a racing write, say.  The
   injection is disarmed however [op] ends, also when it raises. *)
let armed ?(hook = ignore) rs inj op =
  let hit = ref false in
  (match inj with
   | Trap (i, n) -> R.set_trap rs.(i) n
   | Kill (site, skip, victim) ->
     Fault.arm ~skip site (fun () ->
         hit := true;
         hook ();
         match victim with
         | Some i -> R.kill rs.(i)
         | None -> raise R.Crash_point));
  let res =
    Fun.protect
      ~finally:(fun () ->
        Array.iter R.clear_trap rs;
        Fault.disarm ())
      (fun () -> match op () with v -> Some v | exception R.Crash_point -> None)
  in
  ((match inj with Trap _ -> Option.is_none res | Kill _ -> !hit), res)

let crash_all rs p = Array.iter (fun x -> R.crash x p) rs

(* The every-point trap loop.  For each point k from [first] on, [stride]
   apart: [fresh ()] builds the regions and a state, [op] runs on the
   state with a trap at point k on region [region], every region is
   powered off under [policy k] (when the trap fired, or always unless
   [~always:false]), and [check k state res] inspects the result — [res]
   is [op]'s, [None] where the trap fired.  The loop ends after the first
   point [op] completes; a next point past 20,000 fails with
   "[name] did not terminate".  Returns the number of points the trap
   fired at. *)
let sweep ?(first = 0) ?(stride = 1) ?(region = 0) ?(always = true) ~name
    ~policy ~fresh ~op check =
  let rec go k crashes =
    let rs, st = fresh () in
    let fired, res = armed rs (Trap (region, k)) (fun () -> op st) in
    if fired || always then crash_all rs (policy k);
    check k st res;
    if k + stride > 20_000 then failwith (name ^ " did not terminate");
    if fired then go (k + stride) (crashes + 1) else crashes
  in
  go first 0

(* the primitives a region's crash trap counts *)
let primitives x =
  let s = R.stats x in
  s.Pmem.Stats.stores + s.copy_calls + s.pwbs + s.pfences + s.psyncs

(* per-region primitives [f] spends on [rs] *)
let measure rs f =
  let before = Array.map primitives rs in
  f ();
  Array.mapi (fun i x -> primitives x - before.(i)) rs

(* ---- line-fate policies ---- *)

type pinned = [ `Drop | `Keep | `Random | `Torn ]

let policy_name = function
  | R.Drop_all -> "drop"
  | R.Keep_all -> "keep"
  | R.Random_subset _ -> "random"
  | R.Torn_words _ -> "torn"

let rotation : pinned array = [| `Drop; `Keep; `Random; `Torn |]

(* the line-fate policy [p] names, seeded with [salt] *)
let region_policy salt : pinned -> R.policy = function
  | `Drop -> Drop_all
  | `Keep -> Keep_all
  | `Random -> Random_subset salt
  | `Torn -> Torn_words salt

let pinned_name p = policy_name (region_policy 0 p)

(* The pairs a row requires of [sites] placed at least once a round: the
   pinned policy, or under mix the rotation's first [rounds] policies. *)
let rotated policy ~rounds sites =
  let pols =
    match policy with
    | `Mix -> List.filteri (fun i _ -> i < rounds) (Array.to_list rotation)
    | #pinned as p -> [ p ]
  in
  List.concat_map (fun s -> List.map (fun p -> (s, pinned_name p)) pols) sites

(* ---- a campaign row ---- *)

(* The driver's state for one printed row. *)
type run = {
  seed : int;
  policy : [ pinned | `Mix ];
  rounds : int;
  rng : Workload.Keygen.t;
  firings : (string, int) Hashtbl.t;
  pairs : (string * string, unit) Hashtbl.t;
  spans : (int, int) Hashtbl.t;  (** crash_in_recovery's work, per region *)
  mutable crashes : int;
  mutable rec_crashes : int;
  mutable failures : string list;
  mutable tallies : (string * int) list;
}

let start ~seed ~policy ~rounds =
  { seed; policy; rounds; rng = Workload.Keygen.create ~seed ();
    firings = Hashtbl.create 16; pairs = Hashtbl.create 16;
    spans = Hashtbl.create 4; crashes = 0; rec_crashes = 0; failures = [];
    tallies = [] }

let fail r fmt = Printf.ksprintf (fun s -> r.failures <- s :: r.failures) fmt
let draw r n = Workload.Keygen.int r.rng n

(* a campaign-specific count printed on the row *)
let tally r name n =
  if List.mem_assoc name r.tallies then
    r.tallies <-
      List.map (fun (k, v) -> if k = name then (k, v + n) else (k, v)) r.tallies
  else r.tallies <- r.tallies @ [ (name, n) ]

let firings r site = Option.value ~default:0 (Hashtbl.find_opt r.firings site)

(* The line-fate policy of the next power-off at [site]: the pinned one,
   or under mix the rotation's k-th policy for the site's k-th firing, so
   a site placed once a round meets every policy in four rounds whatever
   the rng draws.  The random and torn seeds vary with every power-off. *)
let policy_at r site =
  let k = firings r site in
  region_policy
    (r.seed + (31 * (r.crashes + r.rec_crashes)) + k)
    (match r.policy with `Mix -> rotation.(k mod 4) | #pinned as p -> p)

let record r site pname =
  Hashtbl.replace r.firings site (firings r site + 1);
  Hashtbl.replace r.pairs (site, pname) ()

(* [site] fired: power every region of [rs] off under [p] (default: the
   policy for [site]) and record its pair and, unless [~counted:false],
   the crash. *)
let fired_at r ?(recovery = false) ?(counted = true) ?p site rs =
  let p = match p with Some p -> p | None -> policy_at r site in
  record r site (policy_name p);
  if recovery then r.rec_crashes <- r.rec_crashes + 1
  else if counted then r.crashes <- r.crashes + 1;
  crash_all rs p

(* A power-off with nothing fired (the operation completed first, or the
   damage is at rest), recorded as the pair of "off:<label>": a rotation
   of its own, so under mix these too take every policy in turn. *)
let power_off r label rs = fired_at r ("off:" ^ label) rs ~counted:false

(* One crash step: run [op] with [inj] armed on [rs], then power every
   region off — also when [op] completed first, unless [~always:false].
   Returns whether the injection fired. *)
let crash_step r ?(always = true) rs inj op =
  let fired, _ = armed rs inj op in
  if fired then fired_at r (site_of inj) rs
  else if always then power_off r (site_of inj) rs;
  fired

(* Recover with [inj] armed inside the recovery: if it fires, the crash is
   resolved and recovery rerun — it must be idempotent.  Returns whether
   it fired and the recovered store. *)
let recover_crashed r ?site ?p rs inj reopen =
  let site = Option.value site ~default:(site_of inj) in
  match armed rs inj reopen with
  | false, Some db -> (false, db)
  | _ ->
    fired_at r ~recovery:true ?p site rs;
    (true, reopen ())

(* Crash [op] at a trap on [region], then crash its recovery, both placed
   by measurement on identical control stores from [fresh].  The first
   trap lands on a primitive of [op]'s work on [region] (measured once a
   row): from a random one onward in eighths of that work, the first
   whose control, crashed there under the same policy, has recovery work.
   The second lands on a random primitive of that work, on a region where
   it is non-zero.  [recover ~control] may take a path that does the same
   per-region work.  Returns the store's state and its recovered handle. *)
let crash_in_recovery r ~fresh ~op ~recover region =
  let span =
    match Hashtbl.find_opt r.spans region with
    | Some n -> n
    | None ->
      let rs, c = fresh () in
      let n = max 1 (measure rs (fun () -> op c)).(region) in
      Hashtbl.replace r.spans region n;
      n
  in
  let crashed inj =
    let rs, v = fresh () in
    (rs, v, fst (armed rs inj (fun () -> op v)))
  in
  let rec place k tries =
    let inj = Trap (region, k mod span) and p = policy_at r "trap" in
    let crs, c, _ = crashed inj in
    crash_all crs p;
    let work = measure crs (fun () -> ignore (recover ~control:true crs c)) in
    if Array.for_all (( = ) 0) work && tries < 8 then
      place (k + max 1 (span / 8)) (tries + 1)
    else (inj, p, work)
  in
  let inj, p, work = place (draw r span) 1 in
  let rs, v, fired = crashed inj in
  if fired then fired_at r ~p "trap" rs else crash_all rs p;
  let recover () = recover ~control:false rs v in
  let work = List.mapi (fun i n -> (i, n)) (Array.to_list work) in
  match List.filter (fun (_, n) -> n > 0) work with
  | [] -> (v, recover ())
  | work ->
    let i, n = List.nth work (draw r (List.length work)) in
    let inj = Trap (i, draw r n) in
    (v, snd (recover_crashed r ~site:"recovery-trap" rs inj recover))
