(** Callbacks a collector needs from the runtime above it.

    The collectors cannot depend on the runtime façade (the dependency
    goes the other way), so root enumeration, marker placement and
    profiling arrive as closures. *)

(** The one per-object event the heap profiler still needs: the death
    sweep behind Figure 2's average age.  [None] disables the (costly)
    death sweeps.  A collector calls [on_die] for every object it finds
    dead in a from-space, large-object or mark-sweep sweep, passing the
    allocation site as an [int] so the sweeps stay allocation-free. *)
type object_hooks = { on_die : site:int -> birth:int -> words:int -> unit }

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
    allocs:(int * int * int) list ->
    copies:(int * int * int * int) list ->
    unit;
      (** invoked once per collection after roots are final: the runtime
          places stack markers and refreshes marker bookkeeping, and its
          profiler folds the collection's per-site rows.  [allocs] are
          the [(site, objects, words)] allocated since the previous
          collection ({!Cycle.flush_site_allocs}); [copies] are the
          [(site, objects, first_objects, words)] this collection copied
          ({!Cycle.survivals}), empty under the mark-sweep major, whose
          rows count marks.  Both are sorted by site and empty unless
          the collector keeps site tallies ({!Cycle.site_tallies}). *)
  object_hooks : object_hooks option;
      (** [Some] switches on the death sweeps and the site tallies *)
  site_needs_scan : int -> bool;
      (** Section 7.2 scan elision: [false] means objects born at this
          site can only point at pretenured/tenured data, so the
          pretenured-region scan may skip them *)
  set_pretenure : site:int -> enabled:bool -> unit;
      (** the adaptive controller's pretenure actuator: override the
          static pretenure decision for [site] from the next allocation
          on (the runtime writes it into its per-site pretenure table;
          collectors only call this at collection boundaries) *)
}

(** Hooks that scan nothing and profile nothing (used by unit tests that
    exercise collectors with global roots only). *)
val nothing : t
