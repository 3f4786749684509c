(** The mark-in-place major engine (the paper's Section 2.1 treats the
    large-object space this way; here the whole tenured generation gets
    the same treatment, making the {!Alloc} backends' holes load-bearing).

    Where the copying major evacuates every survivor into a fresh space,
    this engine marks live tenured and large objects where they sit —
    mark bits live in a side bitmap, never in headers — and then sweeps
    dead tenured objects back into the active {!Alloc.Backend} via
    [free], coalescing adjacent corpses into single holes.  Addresses
    are stable across the collection: no forwarding, no barrier reset,
    no backend rebuild.

    Like {!Cheney}, an engine value is per-collection: create it, feed
    it the roots, {!drain} to the mark fixpoint, {!sweep}, drop it.
    The gray set is a plain LIFO stack of addresses ({!Support.Vec}):
    the marker is sequential ([major_kind = Mark_sweep] requires
    [parallelism = 1]). *)

type t

(** [create ~mem ~tenured ~los ~marks ~worklist ~site_tallies ()] is
    an engine over the given tenured space and large-object space.
    [marks] is the mark bitmap, one byte per tenured word, and
    [worklist] the gray stack; [create] clears both, and the engine
    owns them until dropped, so a collector can hand the same buffers
    to every major.  [site_tallies] switches on {!site_survivals}.
    @raise Invalid_argument if [marks] is not [size_words tenured] long. *)
val create :
  mem:Mem.Memory.t -> tenured:Mem.Space.t -> los:Los.t -> marks:Bytes.t ->
  worklist:Mem.Addr.t Support.Vec.t -> site_tallies:bool -> unit -> t

(** [visit_root t cells i] marks the referent (tenured or large object)
    of the encoded word in the root cell [cells.(i)] and queues it for
    field scanning.  Roots are read, never rewritten — nothing moves. *)
val visit_root : t -> int array -> int -> unit

(** [drain t] runs the mark loop to a fixpoint over the gray set. *)
val drain : t -> unit

(** [sweep t ~backend ~deaths] walks the tenured space linearly and
    returns every unmarked, non-filler object to [backend] via [free];
    adjacent corpses are merged into one hole first.  With
    [Some deaths] each corpse is counted into it before its words are
    freed ({!Site_tally.note_death}, the profiler's death rows).
    Returns the words freed.  Large objects are swept separately by
    {!Los.sweep}, which already reclaims into the LOS backend. *)
val sweep :
  t -> backend:Alloc.Backend.packed -> deaths:Site_tally.t option -> int

(** Marked words, tenured + large objects. *)
val words_marked : t -> int

(** Marked words in the tenured space only (= the space's live words
    after {!sweep}). *)
val words_marked_tenured : t -> int

(** Marked tenured objects. *)
val objects_marked : t -> int

(** Words walked by the {!drain} scan loop. *)
val words_scanned : t -> int

(** Per-site mark tallies [(objects, first_objects, words)] — the
    mark-phase analogue of {!Cheney.site_survivals}, populated only when
    the engine was created with [site_tallies] ({!Site_tally.empty}
    otherwise).  Tenured objects only; large-object survival is not
    site-tallied, matching the copy engines. *)
val site_survivals : t -> Site_tally.t
