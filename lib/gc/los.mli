(** The large-object space.

    Large arrays are not allocated in the nursery and promoted; they live
    in a region managed by mark-sweep (Section 2.1).  Placement is
    delegated to a pluggable {!Alloc.Backend} over a growable segment
    arena (default: first-fit free list, so swept holes are reused);
    membership testing is a base-address lookup.  Marking happens while
    a major traces — the copying drain and the mark-sweep mark drain
    both call {!mark} on traced pointers that land here and queue the
    object for field scanning; sweeping happens at full collections
    under either major kind. *)

type t

(** An empty large-object space drawing segments from the given memory.
    [backend] picks the placement policy (default {!Alloc.Backend.Free_list}). *)
val create : ?backend:Alloc.Backend.kind -> Mem.Memory.t -> t

(** [alloc t ~tag ~len ~mask ~site ~birth] places a fresh large object
    of the given header fields, writing its header; the payload is
    zeroed.  The fields are not checked here: the collector's allocation
    entry has run {!Mem.Header.validate_fields} on them before any
    grant. *)
val alloc :
  t -> tag:int -> len:int -> mask:int -> site:int -> birth:int -> Mem.Addr.t

(** [contains t a] tells whether [a] is the base address of a live large
    object.  (All tracing paths hand object bases around, never interior
    pointers.) *)
val contains : t -> Mem.Addr.t -> bool

(** [mark t addr] marks the object; returns [true] if it was not marked
    before (i.e. the caller must scan its fields). *)
val mark : t -> Mem.Addr.t -> bool

(** [sweep t ~deaths] frees unmarked objects and clears surviving marks.
    With [Some deaths] each corpse is counted into it
    ({!Site_tally.note_death}, the profiler's death rows).  Returns the
    words returned to the backend (surfaced as
    [Gc_stats.words_los_freed] and the [los_sweep] phase's [freed_w]
    counter). *)
val sweep : t -> deaths:Site_tally.t option -> int

(** Words across live (currently allocated) large objects.  Feeds the
    generational collector's occupancy under both major kinds. *)
val live_words : t -> int

(** Number of live large objects. *)
val object_count : t -> int

(** [iter t f] visits each live object's base address. *)
val iter : t -> (Mem.Addr.t -> unit) -> unit

(** Name of the placement backend ("bump", "free_list", "size_class"). *)
val backend_name : t -> string

(** Fragmentation snapshot of the backing arena. *)
val frag : t -> Alloc.Backend.frag

(** [frag_into t f] overwrites [f] with the snapshot
    ({!Alloc.Backend.frag_into}). *)
val frag_into : t -> Alloc.Backend.frag -> unit

(** Release every segment (end of a run). *)
val destroy : t -> unit
