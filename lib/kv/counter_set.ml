(* Table-driven counter sets for the store layers: one variant of
   constant constructors plus one table of printed names and meanings,
   over one [int array].  Everything else folds over the table.

   Lifetime: a counter set lives exactly as long as the store handle or
   front-end that owns it.  A reopened store starts a fresh set at zero,
   so a check on work done before a crash reads the set of the store
   that did that work.  The persistence counters ([Pmem.Stats]) live
   with their region instead, and survive a reopen over it.

   Values are plain ints, bumped under whatever lock the ticking code
   already holds: like [Pmem.Stats], not safe to bump from two Domains
   at once. *)

module type TABLE = sig
  type counter

  (** Every counter once, with its printed name and its meaning. *)
  val table : (counter * string * string) list
end

module type S = sig
  include TABLE

  type t

  val create : unit -> t
  val count : t -> counter -> int -> unit

  (** [raise_to t c n] makes [c] at least [n]: a high-water mark. *)
  val raise_to : t -> counter -> int -> unit

  val get : t -> counter -> int
  val snapshot : t -> t

  (** Counter-wise [now - past]. *)
  val since : now:t -> past:t -> t

  (** [name=value] for every counter, in table order. *)
  val pp : Format.formatter -> t -> unit
end

module Make (T : TABLE) : S with type counter = T.counter = struct
  include T

  type t = int array

  let rows = Array.of_list table

  (* constant constructors are immediates, so [==] is exact; a
     top-level loop, so a tick allocates no closure *)
  let rec find c i =
    if i = Array.length rows then
      invalid_arg "Counter_set: counter missing from its table";
    let c', _, _ = rows.(i) in
    if c' == c then i else find c (i + 1)

  let index c = find c 0

  let create () = Array.make (Array.length rows) 0
  let count t c n = let i = index c in t.(i) <- t.(i) + n
  let raise_to t c n = let i = index c in if n > t.(i) then t.(i) <- n
  let get t c = t.(index c)
  let snapshot = Array.copy
  let since ~now ~past = Array.mapi (fun i v -> v - past.(i)) now

  let pp ppf t =
    Array.iteri
      (fun i (_, name, _) ->
        if i > 0 then Format.pp_print_char ppf ' ';
        Format.fprintf ppf "%s=%d" name t.(i))
      rows
end
