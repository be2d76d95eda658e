(** Named failpoint sites for targeted fault injection.

    Persistence-critical code declares sites with {!site} and calls {!hit}
    at each one; a campaign arms a single site by name with an action
    (typically powering the simulated machine off via [Pmem.Region.kill])
    and drives the workload until the site fires.  Unlike the region's
    instruction-counting crash trap, a failpoint targets one specific
    window of the protocol — exactly the windows the paper's 4-fence
    correctness argument reasons about. *)

type site = string

(** Declare (and register) a failpoint site.  Idempotent; returns the
    name so sites read as [let fp = Fault.site "engine.commit.x"].
    [can_raise] (default [false]) marks the site as raise-capable: it
    sits in a window where a software exception can originate (user code,
    allocator, log append) and the enclosing transaction machinery
    promises to abort cleanly — exception-injection campaigns sweep
    exactly these sites.  Crash injection may target any site. *)
val site : ?can_raise:bool -> string -> site

(** All registered site names, sorted.  Sites register when their module
    initializes, so link the libraries of interest before asking. *)
val sites : unit -> string list

(** The raise-capable subset of {!sites} (see [can_raise]). *)
val raise_sites : unit -> string list

val is_site : string -> bool

(** Whether the named site was registered raise-capable. *)
val can_raise : string -> bool

(** Raised (by convention) at armed sites during exception-injection
    campaigns: [arm site (fun () -> raise (Injected site))].  Typed so the
    resulting transaction abort is distinguishable from a real failure. *)
exception Injected of string

exception Unknown_site of string

(** [arm ?skip name action] arms [name]: its [skip+1]-th visit runs
    [action].  Arming is one-shot — the site disarms itself immediately
    before the action runs, so post-crash recovery can cross it again.
    Raises {!Unknown_site} for a name no linked module registered. *)
val arm : ?skip:int -> string -> (unit -> unit) -> unit

val disarm : unit -> unit

(** Visit a site: runs (and consumes) the armed action when it matches. *)
val hit : site -> unit
