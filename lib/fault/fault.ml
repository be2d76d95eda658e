(* Failpoint registry: named crash/fault-injection sites threaded through
   the persistence-critical paths (commit, recovery, allocator).

   The crash-trap machinery in [Pmem.Region] crashes at the k-th
   *primitive*, which sweeps every instruction boundary but makes it
   awkward to target one specific window ("right after CPY became durable
   but before replication touched back").  A failpoint names that window:
   the code declares a site once ([site "engine.commit.cpy_published"]),
   calls [hit] at the spot, and a campaign arms the site by name with an
   arbitrary action — typically [Pmem.Region.kill], powering the machine
   off exactly there.

   Sites self-register at module-initialization time, so a campaign can
   enumerate and validate names ([sites], [is_site]) without a separate
   manifest going stale.  Arming is one-shot: the action fires once
   (after [skip] earlier visits) and the failpoint disarms itself, so
   recovery code running after the injected crash re-traverses the same
   site unharmed.

   This module deliberately depends on nothing: the action closure carries
   whatever capability the campaign wants to inject. *)

type site = string

(* [can_raise]: the site sits in a window where a *software* exception can
   legitimately originate (user code, allocator, log append) and the
   surrounding transaction machinery promises to abort cleanly.  Sites
   strictly inside commit/recovery machinery are crash-only: the only
   fault that reaches them in reality is a power failure. *)
let registry : (string, bool) Hashtbl.t = Hashtbl.create 32

let site ?(can_raise = false) name =
  Hashtbl.replace registry name can_raise;
  name

let is_site name = Hashtbl.mem registry name

let can_raise name =
  match Hashtbl.find_opt registry name with
  | Some b -> b
  | None -> false

let sites () =
  List.sort String.compare
    (Hashtbl.fold (fun k _ acc -> k :: acc) registry [])

let raise_sites () =
  List.sort String.compare
    (Hashtbl.fold (fun k cr acc -> if cr then k :: acc else acc) registry [])

(* The payload an exception-injection campaign raises at an armed site:
   typed, so aborted transactions can be told apart from real failures. *)
exception Injected of string

type armed = {
  name : string;
  mutable remaining : int; (* visits to let through before firing *)
  action : unit -> unit;
}

let current : armed option ref = ref None

exception Unknown_site of string

let arm ?(skip = 0) name action =
  if not (is_site name) then raise (Unknown_site name);
  if skip < 0 then invalid_arg "Fault.arm: negative skip";
  current := Some { name; remaining = skip; action }

let disarm () = current := None

let hit name =
  match !current with
  | Some a when String.equal a.name name ->
    if a.remaining = 0 then begin
      (* disarm before running the action: the action usually raises, and
         recovery must be able to cross this site again *)
      current := None;
      a.action ()
    end
    else a.remaining <- a.remaining - 1
  | Some _ | None -> ()
