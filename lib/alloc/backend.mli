(** The allocation-backend signature and its uniform dispatch.

    A backend manages the object placement inside one region of the heap
    (the tenured generation, the large-object space).  All backends share
    the same arena substrate ({!Arena}: one fixed {!Mem.Space} or a
    growable segment list) and the same walkability invariant: every word
    below a segment frontier is covered by either a live object or a
    {!Mem.Header} filler pseudo-object, so linear walks (census, region
    scans, death sweeps) never need to know which backend placed what.

    Grant contract shared by every implementation, mirroring
    {!Mem.Space.alloc_chunk_atomic}: a request for [w] words is served from a
    hole only when the remainder would be [0] or at least
    [Mem.Header.header_words] — a 1-2 word tail could not hold a filler
    and would break the walk.  Grants are exact: [alloc t w] hands out
    precisely [w] words (first-fit keeps the remainder listed, the
    bucket search re-frees it, the frontier bumps by the request), so
    [live_words = granted - freed] holds to the word — the accounting
    the mark-sweep major's post-sweep cross-check relies on
    (docs/ALLOCATORS.md, "The free path"). *)

type kind =
  | Bump        (** frontier-only; [free] marks words dead but never
                    reuses them *)
  | Free_list   (** first-fit over an address-ordered hole list with
                    coalescing on free *)
  | Size_class  (** segregated per-class hole lists (no coalescing
                    inside a class); oversize requests fall back to a
                    coalescing free list *)

val kind_name : kind -> string

(** Inverse of {!kind_name}; [None] on unknown names. *)
val kind_of_string : string -> kind option

val all_kinds : kind list

(** Fragmentation snapshot: reusable words sitting in holes below the
    frontier.  For {!Bump} the "holes" are freed-but-unreusable words —
    the number the other backends exist to shrink. *)
type frag = {
  free_words : int;    (** words across all holes *)
  free_blocks : int;   (** number of holes *)
  largest_hole : int;  (** biggest single hole, in words *)
}

val no_frag : frag

(** What every backend implements. *)
module type S = sig
  type t

  val kind : kind

  (** [alloc t words] grants exactly [words] contiguous words, or
      [None] when a fixed arena is full (growable arenas never refuse).
      A reused grant carries the previous occupant's bits: the caller
      writes the header and initialises the payload. *)
  val alloc : t -> int -> Mem.Addr.t option

  (** [free t addr ~words] returns [words] words at [addr]; the backend
      covers the extent with one filler so the region stays walkable.
      The caller's side of the contract: [words] is at least
      [Mem.Header.header_words], the extent lies inside one segment and
      is currently covered by whole dead objects and/or fillers — a
      maximal run of adjacent corpses (plus abutting earlier holes) may
      be flushed as a single call, which is how the mark-sweep major's
      sweep hands corpses back.
      @raise Invalid_argument when [words < Mem.Header.header_words]. *)
  val free : t -> Mem.Addr.t -> words:int -> unit

  val contains : t -> Mem.Addr.t -> bool

  (** Linear walk of everything below the frontier, fillers included
      (callers skip fillers, as with {!Mem.Space.iter_objects}). *)
  val iter_objects : t -> (Mem.Addr.t -> unit) -> unit

  (** Granted words not yet freed. *)
  val live_words : t -> int

  val frag : t -> frag

  (** Release owned segments.  Backends wrapping an externally-owned
      space ([of_space] constructors) release nothing. *)
  val destroy : t -> unit
end

(** A backend packaged with its state — the value the collectors hold. *)
type packed = Packed : (module S with type t = 'a) * 'a -> packed

val kind_of : packed -> kind

(** [name p] is [kind_name (kind_of p)]. *)
val name : packed -> string

val alloc : packed -> int -> Mem.Addr.t option
val free : packed -> Mem.Addr.t -> words:int -> unit
val contains : packed -> Mem.Addr.t -> bool
val iter_objects : packed -> (Mem.Addr.t -> unit) -> unit
val live_words : packed -> int
val frag : packed -> frag
val destroy : packed -> unit
