(** A contiguous bump-allocated region backed by one memory block.

    Semispaces, the nursery, the tenured area and Cheney to-spaces are all
    [Space.t] values.  Allocation is a pointer bump; [contains] is a block
    identity check, which is how the collectors classify pointers by
    generation in O(1). *)

type t

(** [create mem ~words] reserves a fresh block of [words] words. *)
val create : Memory.t -> words:int -> t

(** [reissue mem cells] is an empty space over [cells], a spare that
    {!retire} handed back, registered as a fresh block
    ({!Memory.reissue_block}): the same id and size a [create] of
    [Array.length cells] words would have given, with no host
    allocation proportional to the size. *)
val reissue : Memory.t -> int array -> t

(** [base t] is the address of the first word. *)
val base : t -> Addr.t

(** [frontier t] is the address of the next free word. *)
val frontier : t -> Addr.t

val size_words : t -> int
val used_words : t -> int
val free_words : t -> int

(** [cells t] is the block handle ({!Memory.cells}) of the space,
    resolved once at {!create} (or {!reissue}): allocation entries write
    a fresh object through it without a block lookup.  Valid until
    {!release} or {!retire}. *)
val cells : t -> int array

(** [grant t words] bumps the frontier, returning the base of the grant,
    or {!Addr.null} when fewer than [words] words remain.  The miss is
    a sentinel, not an option, so a grant allocates nothing on the
    host. *)
val grant : t -> int -> Addr.t

(** [par_begin t] opens a parallel carving phase: the atomic frontier is
    seeded from the current [used_words].  Until {!par_end}, carve only
    with {!alloc_chunk_atomic} — plain {!grant} would race the atomic
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

(** [retire t mem] frees the backing block exactly as {!release} does
    (stale addresses into it still raise), then hands back its cell
    array with every word ever written zeroed, ready for {!reissue}.
    Only the prefix below the highest frontier the space reached is
    cleared: nothing is ever written past the frontier.  The space must
    not be used afterwards, and neither may any {!cells} handle of it:
    once re-issued the array backs another block. *)
val retire : t -> Memory.t -> int array

(** [iter_objects t mem f] walks the allocated objects laid out
    back-to-back from [base] to [frontier], calling [f base_addr] on each
    (including forwarded corpses). *)
val iter_objects : t -> Memory.t -> (Addr.t -> unit) -> unit
