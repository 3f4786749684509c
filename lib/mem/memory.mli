(** The simulated physical memory: a growable set of blocks of words.

    Collectors obtain blocks (for semispaces, the nursery, the tenured
    area, large objects), address them through {!Addr}, and release them
    when a space dies.  All loads and stores are bounds-checked; touching a
    freed block is detected immediately. *)

type t

val create : unit -> t

(** [alloc_block t ~words] reserves a fresh zeroed block and returns its
    base address (offset 0).  @raise Invalid_argument if [words <= 0]. *)
val alloc_block : t -> words:int -> Addr.t

(** [free_block t base] releases the block containing [base].
    @raise Invalid_argument if already freed or unknown. *)
val free_block : t -> Addr.t -> unit

(** {2 Recycled blocks}

    A collector that swaps a pair of equal-sized spaces at every
    collection (the copying major, the aging nursery) can keep the dead
    half's cell array as a spare instead of allocating a fresh one each
    time.  Retiring and re-issuing keep the block table's bookkeeping
    exactly as {!free_block} followed by {!alloc_block} would: the same
    ids, the same event stamps, the same {!allocated_words}, and a
    stale address into the retired block still raises
    ["Memory: access to freed block"]. *)

(** [retire_block t base] frees the block containing [base] exactly as
    {!free_block} does, then hands back its cell array, contents
    untouched, for a later {!reissue_block}.
    @raise Invalid_argument if already freed or unknown. *)
val retire_block : t -> Addr.t -> int array

(** [reissue_block t cells] registers [cells] as a fresh block under the
    id the next {!alloc_block} would have taken, and returns its base.
    [cells] must hold only {!Value.zero} words (the caller zeroes what
    it wrote) and must not back any other live block.
    @raise Invalid_argument on an empty array. *)
val reissue_block : t -> int array -> Addr.t

(** [block_words t addr] is the size of the block containing [addr]. *)
val block_words : t -> Addr.t -> int

(** [live_block t addr] is [true] when the block containing [addr] is still
    allocated. *)
val live_block : t -> Addr.t -> bool

val get : t -> Addr.t -> Value.t
val set : t -> Addr.t -> Value.t -> unit

(** {2 Raw fast path}

    The collector hot loops pay for [get]/[set] twice: every call
    re-resolves the block and boxes a {!Value.t}.  The raw tier removes
    both costs while keeping the failure modes: a freed or unknown block
    still raises through the block lookup, and an out-of-block offset
    still raises through the array bounds check (with a generic message).
    See [DESIGN.md], "Hot-path architecture", for when code must use
    which tier. *)

(** [cells t addr] is the backing cell array of the block containing
    [addr]: a per-block handle that lets an object scan resolve its block
    once instead of per field.  Cells hold {!Value.encode}d words and are
    indexed by {!Addr.offset}.  The handle stays valid until the block is
    freed.  A stale handle is not checked: after a {!free_block} it
    aliases nothing, but after a {!retire_block} the same array may be
    re-issued and then aliases a live block under another id.  So a
    holder must not outlive the block: collectors drop per-collection
    handles (an aging engine's young to-space handle among them) at the
    end of each collection, and the generational collector rebuilds
    every long-lived holder of a handle, or of the layout behind one,
    at the swap that retires its block: the tenured backend, the reused
    minor engine and the card table.
    @raise Invalid_argument on a freed or unknown block. *)
val cells : t -> Addr.t -> int array

(** [copy_cells src soff dst doff words] copies [words] cells from
    [src.(soff)] on to [dst.(doff)] on, two block handles, as a loop of
    plain integer stores (an object copy is a few words; [Array.blit]
    would run a C call and the host write barrier on each).  The ranges
    must not overlap within one array.
    @raise Invalid_argument if either range leaves its array. *)
val copy_cells : int array -> int -> int array -> int -> int -> unit

(** [blit t ~src ~dst ~words] copies [words] words; source and destination
    may live in different blocks but must not overlap within one block. *)
val blit : t -> src:Addr.t -> dst:Addr.t -> words:int -> unit

(** Total words across currently-allocated blocks (for budget sanity
    checks in tests). *)
val allocated_words : t -> int

(** Bytes per simulated word; every byte figure reported by the system is
    [words * bytes_per_word]. *)
val bytes_per_word : int
