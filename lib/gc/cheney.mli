(** The copying engine (Cheney 1970), shared by the semispace collector,
    nursery evacuation and tenured (major) collection.

    The engine forwards pointers out of a *from* space into a to-space,
    breadth-first via the classic scan-pointer walk.  The from-space is
    named at {!create}: the engine keeps its block id and cell array, so
    telling a from-space pointer from any other is one integer compare
    and reading the object behind it takes no block lookup.  Objects
    move one word at a time, as plain integer stores.  Pointers that land in
    the large-object space are marked and their fields queued for scanning
    when [trace_los] is on (full collections); minor collections leave
    large objects alone because every large-object → nursery pointer is
    covered by the write barrier.

    With [site_tallies] the engine also tallies per-allocation-site
    survival ({!site_survivals}): the rows behind the collectors'
    [site_survival] trace events, the control plane and the heap
    profiler.  Engines without it skip that accounting entirely. *)

type t

(** Aging-nursery evacuation (Section 7.2's alternative tenuring policy):
    survivors younger than [threshold] are copied into [young_to] with
    their age counter incremented; the rest are promoted into the
    engine's main to-space. *)
type aging = {
  young_to : Mem.Space.t;
  threshold : int;
}

val create :
  mem:Mem.Memory.t ->
  from:Mem.Space.t ->
  to_space:Mem.Space.t ->
  ?aging:aging ->
  ?remember:(loc:Mem.Addr.t -> owner:Mem.Addr.t option -> unit) ->
  ?promote_alloc:(int -> Mem.Addr.t) ->
  ?eager:bool ->
  site_tallies:bool ->
  los:Los.t option ->
  trace_los:bool ->
  promoting:bool ->
  unit ->
  t
(** [from] is the space the engine evacuates; it must keep its block
    (neither released nor retired) while the engine is in use, which a
    reused engine's nursery does across minors under immediate
    promotion.
    [remember] is called for every heap location (outside the young
    to-space) whose updated value still points into the young to-space:
    under an aging nursery those old-to-young edges must re-enter the
    remembered set or the next minor collection would miss them.
    [owner] is the base of the containing object when the engine knows
    it (object scans), [None] for raw locations (store-buffer entries).
    [promote_alloc], when given, places every promotion through it (an
    {!Alloc.Backend} allocator over [to_space]'s block) instead of
    bumping the to-space frontier — the mark-sweep major's minors, where
    promotions reuse swept holes.  Grants may then land below the
    frontier where the contiguous scan pointer cannot see them, so the
    engine drains promoted copies from an explicit gray queue instead;
    an allocator that returns {!Mem.Addr.null} is exhausted and raises
    {!Budget.Exhausted}.
    [eager] (default false) switches the engine to hierarchical
    evacuation: after each copy, the object's not-yet-forwarded children
    are copied depth-first right behind it (bounded in depth and words;
    docs/LAYOUT.md), so related objects land cache-adjacent.  Placement
    only — field rewriting still happens on the normal scan pass, and
    every [Gc_stats] total is order-insensitive, so eager and
    breadth-first runs are counter-identical.
    [site_tallies] switches on {!site_survivals} (collectors pass
    {!Cycle.site_tallies}).
    [promoting] tags the engine's copies into [to_space] as promotions
    out of the nursery (statistics only). *)

(** [reset t ~to_space ~site_tallies] readies the engine for another
    collection into [to_space]: the main to-space and its block handle
    are retargeted (a collector that replaced its tenured space passes
    the new one, otherwise the same), the scan pointers restart at the
    to-spaces' current frontiers, the gray queues and the counters
    empty, and the site tallies restart empty (kept, dropped or created
    as [site_tallies] now asks).  The young to-space of an aging engine
    is not retargeted: aging engines are built per collection.  Nothing
    is allocated unless a tally table is created or had grown. *)
val reset : t -> to_space:Mem.Space.t -> site_tallies:bool -> unit

(** [in_from t a]: [a] lies in the from-space (a block-id compare;
    false for {!Mem.Addr.null}). *)
val in_from : t -> Mem.Addr.t -> bool

(** [visit_root t cells i] rewrites the root cell [cells.(i)] (an
    encoded word) in place, forwarding the value it holds (as do the
    visits below): from-region pointers
    are copied (or resolved through their forwarding pointer);
    large-object pointers are marked/queued; anything else passes
    through.
    @raise Budget.Exhausted when a [promoting] engine's promotion
    overflows the to-space or exhausts [promote_alloc] (the live data
    outgrew the budget).
    @raise Failure on any other to-space overflow (a collector sizing
    bug). *)
val visit_root : t -> int array -> int -> unit

(** [visit_loc t loc] rewrites one heap location in place. *)
val visit_loc : t -> Mem.Addr.t -> unit

(** [visit_object_fields t base] rewrites every pointer field of the
    object at [base] in place (remembered-set objects, pretenured
    objects recorded one by one). *)
val visit_object_fields : t -> Mem.Addr.t -> unit

(** [scan_region t base ~until] rewrites in place the pointer fields of
    every object laid out back-to-back from [base] up to [until] (same
    block): the minor's pretenured region.  The block is resolved once
    and each header decoded once; {!Mem.Header.filler_site} fillers are
    stepped over.  Every pointer field takes the field visit of
    {!visit_object_fields}: under immediate promotion a field that
    points outside the from-space is left as it is (a minor does not
    trace large objects), under an aging nursery the visit re-records
    old-to-young edges.  Returns the words of the non-filler objects
    walked, which are not part of {!words_scanned}. *)
val scan_region : t -> Mem.Addr.t -> until:Mem.Addr.t -> int

(** [drain t] runs the scan loops to a fixpoint: the to-space scan
    pointer (or, under [promote_alloc], the gray queue of backend-placed
    promotions instead), the young to-space scan pointer (aging
    nurseries), and the queue of marked large objects. *)
val drain : t -> unit

(** Words copied by this engine instance (both destinations). *)
val words_copied : t -> int

(** Words copied into the main to-space (promotions under aging). *)
val words_promoted : t -> int

(** Words walked by the [drain] scan loops (to-space objects, young
    to-space objects, queued large objects). *)
val words_scanned : t -> int

(** Per-allocation-site survival tallies: [(objects, first_objects,
    words)] per site, where [first_objects] counts the objects
    surviving their first collection (no survivor bit yet).  Populated
    only when the engine was created (or last reset) with
    [site_tallies]; {!Site_tally.empty} otherwise.  The table is the
    engine's own, rewritten by its next collection. *)
val site_survivals : t -> Site_tally.t

(** [sweep_dead ~mem ~space ~deaths] walks a collected from-space and
    counts every object that was not forwarded into [deaths]
    ({!Site_tally.note_death}; used by profiling runs to observe
    deaths).  Chunk-tail fillers left behind by the parallel drain
    ({!Mem.Header.filler_site}) are stepped over without counting. *)
val sweep_dead :
  mem:Mem.Memory.t -> space:Mem.Space.t -> deaths:Site_tally.t -> unit
