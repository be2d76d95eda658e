(** Sequential persistent-memory allocator (Doug Lea style): boundary tags,
    segregated free lists, coalescing.

    The allocator is a functor over a word memory; instantiated with a
    PTM's interposed store, its metadata updates become part of the
    enclosing transaction and roll back on crashes like any user data
    (§4.4 of the paper). *)

module type MEM = sig
  type t

  (** Load the 8-byte word at a byte offset. *)
  val load : t -> int -> int

  (** Store the 8-byte word at a byte offset (interposed by the PTM). *)
  val store : t -> int -> int -> unit
end

(** Raised when the arena cannot satisfy a request.  A recoverable,
    typed event: inside a PTM transaction the enclosing [update_tx]
    aborts cleanly and the arena stays exactly as it was. *)
exception Out_of_memory of { requested : int; available : int }

(** Raised on metadata corruption (bad magic — including an arena of the
    format before the chunk-start bitmap — or an undecodable header met
    while validating a free). *)
exception Corrupt of string

(** Raised by {!Make.free} for an offset that is not the payload of a
    live chunk: outside the heap, misaligned, interior to a chunk, or
    already freed (including a stale pointer to a chunk that an earlier
    free coalesced away).  Detected *before* any metadata is modified, so
    the arena is untouched. *)
exception Invalid_free of { offset : int; reason : string }

(** Number of segregated free lists. *)
val nbins : int

(** The word at the arena base of a formatted arena. *)
val magic : int

(** Bytes of fixed allocator metadata at the start of the arena.  The
    chunk-start bitmap follows at [base + meta_bytes]: bit [g land 31] of
    word [g lsr 5] is set iff a chunk starts at granule
    [g = (c - data_start) / 16] below the frontier, for payload offset
    [c]. *)
val meta_bytes : int

(** Offset, relative to the arena base, of the word holding the allocation
    frontier (an absolute region offset).  A twin-copy engine reads the
    consistent copy's frontier during recovery to size the raw copy. *)
val top_offset : int

(** The free-list index for a chunk of the given size (exposed for
    tests). *)
val bin_index : int -> int

module Make (M : MEM) : sig
  type t

  (** [init mem ~base ~size] formats a fresh arena occupying
      [base, base+size) and returns a handle.  The chunk-start bitmap
      (one bit per 16 bytes of arena) is only stored to where the memory
      is not already zero. *)
  val init : M.t -> base:int -> size:int -> t

  (** [attach mem ~base] re-opens a previously formatted arena (after a
      restart) in O(1); raises [Corrupt] if the magic does not match. *)
  val attach : M.t -> base:int -> t

  (** [alloc t n] returns the byte offset of an [n]-byte payload.  The
      payload is NOT zeroed.  Raises {!Out_of_memory} when the arena is
      exhausted. *)
  val alloc : t -> int -> int

  (** Raises {!Invalid_free} (before touching any metadata) when the
      offset is not a live chunk — including double frees.  The check is
      O(1): a bitmap bit test plus the chunk's in-use bit. *)
  val free : t -> int -> unit

  (** Bytes between the arena base and the allocation frontier — the upper
      bound a twin-copy commit needs to replicate. *)
  val used_bytes : t -> int

  (** Payload offset of the first chunk; its header, 8 bytes below, is
      the start of the chunk area. *)
  val data_start : t -> int

  (** Usable payload bytes of an allocated chunk (>= the requested size). *)
  val usable_size : t -> int -> int

  (** Full structural invariant check (heap walk + bin walk + bitmap
      cross-check against the walk); returns all violations found. *)
  val check : t -> (unit, string) result
end
