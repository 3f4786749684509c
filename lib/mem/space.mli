(** A contiguous bump-allocated region backed by one memory block.

    Semispaces, the nursery, the tenured area and Cheney to-spaces are all
    [Space.t] values.  Allocation is a pointer bump; [contains] is a block
    identity check, which is how the collectors classify pointers by
    generation in O(1). *)

type t

(** [create mem ~words] reserves a fresh block of [words] words. *)
val create : Memory.t -> words:int -> t

(** [base t] is the address of the first word. *)
val base : t -> Addr.t

(** [frontier t] is the address of the next free word. *)
val frontier : t -> Addr.t

val size_words : t -> int
val used_words : t -> int
val free_words : t -> int

(** The soft capacity {!alloc} honours, [size_words] by default. *)
val limit_words : t -> int

(** [set_limit t words] moves the soft capacity, clamped to
    [\[used_words t, size_words t\]] — shrinking below the live frontier
    is silently raised to it, so a resize at a collection boundary can
    never invalidate granted objects.  Only {!alloc} honours the limit;
    chunk carving stays bound by the physical size (a to-space must
    never lose room mid-collection).  The adaptive control plane resizes
    the nursery through this without remapping its block. *)
val set_limit : t -> int -> unit

(** [alloc t words] bumps the frontier, returning the base of the grant, or
    [None] when fewer than [words] words remain under {!limit_words}. *)
val alloc : t -> int -> Addr.t option

(** [par_begin t] opens a parallel carving phase: the atomic frontier is
    seeded from the current [used_words].  Until {!par_end}, carve only
    with {!alloc_chunk_atomic} — plain {!alloc} would race the atomic
    frontier. *)
val par_begin : t -> unit

(** [alloc_chunk_atomic t ~min_words ~pref_words] carves a private bump
    region out of the space for a parallel copier, valid only between
    {!par_begin} and {!par_end}: the caller gets [Some (base, grant)]
    with [min_words <= grant <= pref_words], or [None] when fewer than
    [min_words] words remain.  Distinct callers, on any domains, always
    receive disjoint regions.  The grant rule guarantees that the caller
    can always keep the space linearly walkable with {!Header}-sized
    filler objects: the grant is either exactly [min_words], or at least
    [min_words + Header.header_words], never in between (a 1-2 word tail
    could not hold a filler).  When the space is nearly full the last
    1-2 free words may be stranded beyond the frontier, which no walk
    ever visits. *)
val alloc_chunk_atomic :
  t -> min_words:int -> pref_words:int -> (Addr.t * int) option

(** [par_end t] closes the parallel phase, folding the atomic frontier
    back into the space's ordinary frontier.  Call after all carvers
    have quiesced (a barrier), never concurrently with carving. *)
val par_end : t -> unit

(** [contains t addr] tells whether [addr] lies in this space's block. *)
val contains : t -> Addr.t -> bool

(** [reset t] empties the space (frontier back to base). *)
val reset : t -> unit

(** [release t mem] frees the backing block; the space must not be used
    afterwards. *)
val release : t -> Memory.t -> unit

(** [iter_objects t mem f] walks the allocated objects laid out
    back-to-back from [base] to [frontier], calling [f base_addr] on each
    (including forwarded corpses). *)
val iter_objects : t -> Memory.t -> (Addr.t -> unit) -> unit
