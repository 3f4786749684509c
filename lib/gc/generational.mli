(** The two-generation collector (Section 2.1) — baseline number two, and
    the substrate for stack markers and pretenuring.

    - The nursery is bump-allocated and never larger than the secondary
      cache (512 KB); within the [k * Min] budget it takes at most a
      quarter of the budget.
    - Minor collections promote every live nursery object straight into
      the tenured generation (immediate promotion).
    - The tenured generation is collected by copying; its trigger follows
      the preset target liveness ratio of 0.3, clamped to the budget.
    - Large arrays bypass the nursery into a mark-sweep large-object
      space, swept at major collections.
    - Old-to-young pointers are tracked by a sequential store buffer, or
      by the deduplicating remembered set (the card-marking stand-in).
    - Pretenuring support: [alloc_pretenured] places an object directly
      in the tenured generation; the freshly pretenured region is scanned
      for young pointers at the next collection (Section 6), except
      under scan elision (Section 7.2, [Hooks.scan_elision]).

    While [Obs.Trace] is enabled, each collection emits [gc_begin],
    per-phase spans ([roots], [barrier], [region_scan], [copy],
    [los_sweep], [profile_sweep]), per-site [site_survival] tallies and
    a closing [gc_end] record; parallel drains additionally emit one
    [copy.dN] span per domain and a [steals] counter on the [copy]
    span; see docs/TRACING.md.  Every collection kind runs one cycle
    skeleton with a per-kind reclaim step (docs/COLLECTORS.md, "One
    collection cycle").

    A budget too small for the run raises {!Budget.Exhausted} from
    allocation or collection, never a [Failure]. *)

type barrier_kind =
  | Barrier_ssb     (** sequential store buffer; duplicates recorded *)
  | Barrier_remset  (** deduplicating object remembered set *)
  | Barrier_cards   (** card marking over the tenured space with a
                        crossing map (Sobalvarro 1988); large-object
                        locations fall back to a store buffer *)

(** How the tenured generation is collected at a major collection. *)
type major_kind =
  | Copying
      (** evacuate every survivor into a fresh space (the default; the
          paper's system).  Compaction for free, but the whole live set
          is copied every major. *)
  | Mark_sweep
      (** mark tenured + large objects in place ({!Mark_sweep}), then
          sweep dead tenured objects back into the configured
          {!Alloc.Backend} as reusable holes.  Addresses are stable;
          promotions and pretenured allocations are then served through
          the backend, so holes become load-bearing.  When reclaimed
          holes cannot absorb another nursery's worth of promotion
          (fragmentation, or the [Bump] backend's unreusable frees), the
          collector falls back to one copying major to compact.
          Requires [parallelism = 1]: the parallel drain carves private
          copy chunks off the space frontier, which is incompatible with
          backend placement. *)

(** Lowercase label, as reported in {!Gc_stats.major_kind} and accepted
    on the CLI: ["copying"] / ["mark_sweep"]. *)
val major_kind_name : major_kind -> string

(** Inverse of {!major_kind_name} (also accepts ["mark-sweep"]). *)
val major_kind_of_string : string -> major_kind option

type config = {
  nursery_bytes_max : int;         (** 512 KB in the paper *)
  tenured_target_liveness : float; (** 0.3 in the paper *)
  budget_bytes : int;              (** k * Min *)
  los_threshold_words : int;       (** arrays at least this big bypass
                                       the nursery *)
  barrier : barrier_kind;
  tenure_threshold : int;
      (** minor collections an object must survive before promotion.
          1 (the paper's system) promotes immediately; higher values give
          the aging-nursery policy of Section 7.2, under which
          pretenuring is predicted to help even more. *)
  parallelism : int;
      (** drain domains for the copy/scan fixpoint.  [1] (the default)
          runs the sequential {!Cheney} engine, bit-for-bit today's
          behaviour; higher values run the {!Par_drain} engine with that
          many logical domains (virtual-time — see par_drain.mli) for
          minor collections under immediate promotion and for all major
          collections, falling back to the sequential engine under an
          aging nursery or the safe reference path.  At most
          {!Gc_stats.max_domains}. *)
  parallelism_mode : Par_drain.mode;
      (** how the drain domains execute: [Virtual] (the default) is the
          deterministic discrete-event scheduler, [Real] runs true
          OCaml 5 domains from the shared {!Domain_pool} for wall-clock
          parallelism.  Ignored at [parallelism = 1]'s sequential
          engine. *)
  chunk_words : int;
      (** private to-space copy-chunk size for the parallel drain, in
          words; [0] (the default) uses the engine's built-in size.
          Must otherwise be at least two headers. *)
  eager_evac : bool;
      (** hierarchical (eager-child) evacuation in every copy engine
          (minor and copying-major, sequential and parallel): each
          copied object's not-yet-forwarded children are copied
          depth-first right behind it, bounded in depth and words
          (docs/LAYOUT.md), so parent and children land cache-adjacent.
          Placement-only — [Gc_stats] is identical to breadth-first.
          Default [false]. *)
  census_period : int;
      (** heap-census sampling: every [census_period]-th collection the
          collector walks the live heap and (when tracing is on) emits
          one [census] trace record per allocation site — live objects,
          live words and object-age buckets, the offline evidence for
          the paper's bimodal-lifetime claim.  Ages come from a compact
          per-region {!Age_table} over the tenured space (survivors of a
          major collection are conservatively stamped with the oldest
          prior region's birth), header ages for aging-nursery
          survivors, and recorded birth ordinals for large objects.
          [0] (the default) disables the census and all its
          bookkeeping. *)
  tenured_backend : Alloc.Backend.kind;
      (** placement policy for pretenured allocations — and, under
          [major_kind = Mark_sweep], for promotions — into the tenured
          space.  Default {!Alloc.Backend.Bump} — byte-identical to the
          pre-backend collector.  Under the copying major the copy
          engines always bump the space frontier directly (their Cheney
          scan pointer requires contiguous to-space) and tenured objects
          are only reclaimed by whole-space compaction, so every backend
          degenerates to frontier allocation; under the mark-sweep major
          sweeps return dead words to this backend and subsequent
          placement reuses them ([Bump] excepted — its frees are
          terminal, making that pairing a mark-compact). *)
  los_backend : Alloc.Backend.kind;
      (** placement policy for the large-object space.  Default
          {!Alloc.Backend.Free_list}: holes opened by sweeps are reused
          first-fit.  [Bump] never reuses swept words (measures the
          fragmentation the free list recovers); [Size_class] trades
          coalescing for segregated per-class lists. *)
  major_kind : major_kind;
      (** tenured collection strategy; default {!Copying}, bit-for-bit
          the pre-[Mark_sweep] collector. *)
  adaptive : bool;
      (** run the {!Control} plane at collection boundaries: after each
          [gc_end] the collector feeds the controller the collection's
          per-site allocation, survival and pretenure counts (the rows
          the trace carries) and routes every site a closing window
          decides on through [Hooks.set_pretenure] — the paper's
          Section 6 rule applied online.  Every decision is emitted as
          a [policy_update] trace record, replayable offline with
          {!Control.Replay} seeded with {!Control.Params.default}.
          Default [false]: the collector is then bit-for-bit the static
          configuration. *)
  pretenured_init : int list;
      (** sites the static pretenure policy routes old, seeding the
          controller's per-site knob state so demotion decisions report
          a truthful old value.  Default []. *)
}

(** The paper's parameters under the given budget. *)
val default_config : budget_bytes:int -> config

type t

(** [create mem ~hooks ~stats cfg] builds a collector over [mem] that
    mutates [stats] in place and calls back into the runtime through
    [hooks]. *)
val create : Mem.Memory.t -> hooks:Hooks.t -> stats:Gc_stats.t -> config -> t

(** [alloc t ~tag ~len ~mask ~site ~birth] allocates an object with
    these header fields ({!Mem.Header.validate_fields}) in the nursery
    (or the large-object space for big arrays), collecting as needed.
    Payload zeroed.  No header record is built and nothing is boxed:
    the object is written through the granting space's block handle.
    @raise Budget.Exhausted when the object or the live data it forces
    to be promoted does not fit the budget.
    @raise Invalid_argument as {!Mem.Header.validate_fields}, before
    anything is collected, granted or counted. *)
val alloc :
  t -> tag:int -> len:int -> mask:int -> site:int -> birth:int -> Mem.Addr.t

(** [bump_record t ~len ~mask ~site ~birth] is {!alloc} of a record
    when the nursery has room for it now: the same grant, header and
    counters, but the payload is left as the nursery held it, and it
    never collects.  {!Mem.Addr.null}, with nothing granted or counted,
    when the nursery lacks the room.  The caller must store every field
    (through {!nursery_cells}) before its next runtime operation.
    @raise Invalid_argument as {!alloc}. *)
val bump_record :
  t -> len:int -> mask:int -> site:int -> birth:int -> Mem.Addr.t

(** [nursery_cells t] is the current nursery's block handle, where
    {!bump_record}'s grants lie.  An aging minor swaps the nursery, so
    it is read after the grant. *)
val nursery_cells : t -> int array

(** [alloc_pretenured t ~tag ~len ~mask ~site ~birth] allocates directly
    into the tenured generation (profile-driven pretenuring), through
    the tenured placement backend.
    @raise Budget.Exhausted when the tenured area is full.
    @raise Invalid_argument as {!alloc}. *)
val alloc_pretenured :
  t -> tag:int -> len:int -> mask:int -> site:int -> birth:int -> Mem.Addr.t

(** [record_update t ~obj ~loc] is the write barrier: called on every
    pointer store, where [loc] is the mutated slot and [obj] the object
    containing it. *)
val record_update : t -> obj:Mem.Addr.t -> loc:Mem.Addr.t -> unit

(** [remember t ~obj ~loc] logs the edge at [loc] in the barrier's
    structure as [record_update] does, without counting a pointer
    update: the runtime's scan-elision fallback for a record's
    initialising store. *)
val remember : t -> obj:Mem.Addr.t -> loc:Mem.Addr.t -> unit

(** Force a minor collection. *)
val minor : t -> unit

(** Force a minor followed by a major collection. *)
val full : t -> unit

(** The statistics record the collector mutates in place. *)
val stats : t -> Gc_stats.t

(** The hooks the collector was created with (tests drive the adaptive
    controller's [set_pretenure] path through them). *)
val hooks : t -> Hooks.t

(** Live words after the last major collection, plus large-object words. *)
val live_words : t -> int

(** Region membership tests, for assertions and the write barrier. *)
val in_nursery : t -> Mem.Addr.t -> bool

val in_tenured : t -> Mem.Addr.t -> bool

(** Current nursery size (the collector shrinks it to the cache cap). *)
val nursery_bytes : t -> int

(** [flush_site_allocs t consume] hands the per-site allocation table
    to [consume] and empties it: the [(objects, words)] allocated per
    site since the last collection, which no [after_collection] call
    has carried yet (no rows without site tallies).  While tracing in
    detail the rows are also emitted as [site_alloc] records. *)
val flush_site_allocs : t -> (Site_tally.t -> unit) -> unit

(** Release all memory held by the collector. *)
val destroy : t -> unit
