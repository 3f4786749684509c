(** Callbacks a collector needs from the runtime above it.

    The collectors cannot depend on the runtime façade (the dependency
    goes the other way), so root enumeration, marker placement and
    profiling arrive as closures. *)

type t = {
  scan_stack : Rstack.Scan.mode -> Rstack.Root.Buf.t -> Rstack.Scan.result;
      (** append the stack and register roots to the collector's root
          buffer; honours the scan cache.  The collector reads the
          result before its next call, so the runtime may return one
          record it rewrites every time. *)
  visit_globals : Rstack.Scan.mode -> Rstack.Root.Buf.t -> unit;
      (** append the runtime's global roots (globals, then the
          exception cell) to the collector's root buffer.  [Full] visits
          every global; [Minor] may skip a global that was not written
          since the last collection (the collector only scans [Minor]
          when every collection leaves no global pointing into the
          nursery), keeping index order among those it visits.  The
          exception cell is always visited. *)
  after_collection :
    full:bool ->
    allocs:Site_tally.t ->
    copies:Site_tally.t ->
    deaths:Site_tally.t ->
    unit;
      (** invoked once per collection after roots are final: the runtime
          places stack markers and refreshes marker bookkeeping, and its
          profiler folds the collection's per-site rows.  [allocs] holds
          the [(objects, words)] allocated per site since the previous
          collection (the rows of the trace's [site_alloc] records);
          [copies] the [(objects, first_objects, words)] this collection
          copied ({!Cycle.survivals}), empty under the mark-sweep major,
          whose rows count marks; [deaths] the [(objects, Σ birth)] per
          site it found dead ({!Site_tally.note_death}).  The tables are
          empty unless the collector keeps site tallies
          ({!Cycle.site_tallies}), and deaths unless [profiling].  They
          are the collector's own: valid during the call only, and read,
          never written. *)
  profiling : bool;
      (** [true] switches on the site tallies and the death sweeps: every
          object a from-space, large-object or mark-sweep sweep finds
          dead is counted into the collection's [deaths] rows.  The
          sweeps allocate nothing, and cost a walk of the swept space *)
  scan_elision : bool;
      (** Section 7.2 scan elision: [true] means the pretenured-region
          scan skips every object (counting it in
          [words_region_skipped]), because the mutator sends each young
          pointer it initialises into a pretenured object through the
          write barrier *)
  set_pretenure : site:int -> enabled:bool -> unit;
      (** the adaptive controller's pretenure actuator: override the
          static pretenure decision for [site] from the next allocation
          on (the runtime writes it into its per-site pretenure table;
          collectors only call this at collection boundaries) *)
}

(** Hooks that scan nothing and profile nothing (used by unit tests that
    exercise collectors with global roots only). *)
val nothing : t
