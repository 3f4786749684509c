(** The semispace collector (Fenichel & Yochelson 1969) with Cheney's
    algorithm — baseline number one (Section 2.1).

    Resizing follows the paper: with target liveness ratio [r] (0.10 in
    the experiments) and observed post-collection liveness [r'], the heap
    is logically resized by [r'/r] — implemented as a soft allocation
    limit within a fixed physical semispace of half the [k * Min]
    budget, so memory usage never exceeds the budget while collection
    frequency follows the resizing policy.

    While [Obs.Trace] is enabled, each collection emits [gc_begin],
    [roots]/[copy]/[profile_sweep] phase spans, per-site [site_survival]
    tallies and a closing [gc_end] record; see docs/TRACING.md. *)

type config = {
  target_liveness : float;  (** the paper's r; 0.10 in all experiments *)
  budget_bytes : int;       (** k * Min; both semispaces together *)
  initial_bytes : int;      (** starting soft limit *)
  parallelism : int;
      (** drain domains for the copy/scan fixpoint; [1] (the default) is
          the sequential {!Cheney} oracle, higher values run the
          {!Par_drain} engine (virtual-time logical domains) on the raw
          paths.  At most {!Gc_stats.max_domains}. *)
  parallelism_mode : Par_drain.mode;
      (** how the drain domains execute: [Virtual] (the default) is the
          deterministic discrete-event scheduler, [Real] runs true
          OCaml 5 domains from the shared {!Domain_pool} for wall-clock
          parallelism. *)
  chunk_words : int;
      (** private to-space copy-chunk size for the parallel drain, in
          words; [0] (the default) uses the engine's built-in size.
          Must otherwise be at least two headers. *)
  eager_evac : bool;
      (** hierarchical (eager-child) evacuation: copy each object's
          not-yet-forwarded children depth-first right behind it
          (bounded; docs/LAYOUT.md).  Placement-only — statistics are
          identical to breadth-first.  Default [false]. *)
}

(** The paper's parameters under the given budget. *)
val default_config : budget_bytes:int -> config

type t

(** [create mem ~hooks ~stats cfg] builds a collector over [mem] that
    mutates [stats] in place and calls back into the runtime through
    [hooks].
    @raise Invalid_argument on an empty budget. *)
val create : Mem.Memory.t -> hooks:Hooks.t -> stats:Gc_stats.t -> config -> t

(** [alloc t ~tag ~len ~mask ~site ~birth] allocates one object with
    these header fields ({!Mem.Header.validate_fields}), collecting
    first if the soft limit would be exceeded.  Payload slots are
    zeroed.  No header record is built and nothing is boxed.
    @raise Budget.Exhausted when live data cannot fit in the budget.
    @raise Invalid_argument as {!Mem.Header.validate_fields}, before
    anything is collected, granted or counted. *)
val alloc :
  t -> tag:int -> len:int -> mask:int -> site:int -> birth:int -> Mem.Addr.t

(** Force a collection now. *)
val collect : t -> unit

(** The statistics record the collector mutates in place. *)
val stats : t -> Gc_stats.t

(** Words surviving the last collection. *)
val live_words : t -> int

(** [contains t a] tells whether [a] is a live to-space address (for
    debugging assertions in tests). *)
val contains : t -> Mem.Addr.t -> bool

(** As {!Generational.flush_site_allocs}. *)
val flush_site_allocs : t -> (Site_tally.t -> unit) -> unit

(** Release all memory held by the collector. *)
val destroy : t -> unit
