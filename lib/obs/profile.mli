(** The offline trace analyzer: folds a JSONL GC trace into per-site
    survival statistics, exact pause records, heap censuses and
    stack-scan cost attribution.

    This is the batch half of the observability layer: {!Trace} writes
    during a run, [Profile] reads afterwards — no collector needs to be
    running.  Every line is validated against {!Schema} (including the
    envelope version) before folding, so an analysis never silently
    misreads a trace from another format version.

    Over a fully-traced run the per-site integers are exact, not
    sampled: [site_alloc] deltas are flushed at every collection and at
    collector destruction, and [site_survival.first_objects] counts each
    object's first copy exactly once (pretenured objects carry the
    survivor bit from birth and never count).  The runtime's profiler
    folds the same per-collection rows, so over a copying run the
    derived {!old_fraction} equals its survived/allocated ratio, which
    is what lets {!select_pretenure} reproduce the in-process policy
    decision offline. *)

(** Per-site totals folded over the whole trace. *)
type site = {
  site : int;
  alloc_objects : int;       (** from [site_alloc] deltas *)
  alloc_words : int;
  survived_objects : int;    (** survivors summed over collections:
                                 copies under a copying collection,
                                 marks under a mark-sweep major *)
  first_objects : int;       (** objects that survived their first
                                 collection — the paper's [old%]
                                 numerator *)
  survived_words : int;      (** words of [survived_objects] *)
  pretenured_objects : int;  (** [pretenure] events *)
  pretenured_words : int;
}

(** One collection's pause: [\[start_us, start_us +. dur_us)] on the
    trace clock. *)
type pause = {
  gc : int;
  kind : string;
  start_us : float;
  dur_us : float;
}

type census_row = {
  c_site : int;
  c_objects : int;
  c_words : int;
  c_ages : (string * int) list;  (** age-bucket label -> live objects *)
}

(** One sampled heap census (all [census] records of one collection). *)
type census = {
  census_gc : int;
  rows : census_row list;  (** sorted by site *)
}

(** Stack-scan cost attribution summed over [stack_scan] records. *)
type scan_stats = {
  scans : int;
  frames_decoded : int;
  frames_reused : int;
  slots_decoded : int;
  scan_roots : int;
}

(** Final fragmentation snapshot of one region's allocation backend (the
    last [backend_stats] record seen for the region — they are gauges,
    not deltas). *)
type backend_row = {
  b_region : string;
  b_backend : string;
  b_live_w : int;
  b_free_w : int;
  b_free_blocks : int;
  b_largest_hole : int;
}

(** One [policy_update] record — an adaptive control-plane decision —
    in trace order.  The decision-replay test re-derives this list by
    folding the same trace through the offline controller. *)
type policy_row = {
  u_gc : int;        (** collection ordinal the decision followed *)
  u_knob : string;
  u_old : int;
  u_new : int;
  u_window : int;
  u_signals : (string * int) list;
}

type t = {
  events : int;               (** records folded *)
  collections : int;          (** [gc_begin] records *)
  gc_kinds : (string * int) list;   (** collections by kind, sorted *)
  sites : site list;          (** sorted by site id *)
  pauses : pause list;        (** in trace order *)
  censuses : census list;     (** in trace order *)
  scan : scan_stats;
  phase_us : (string * float) list;  (** summed [phase] spans, sorted *)
  region_scanned_w : int;  (** pretenured-region words walked, summed over
                               [region_scan] phase counters *)
  region_skipped_w : int;  (** words the Section 7.2 scan elision skipped *)
  backends : backend_row list;  (** one row per region, sorted *)
  copied_w : int;
  promoted_w : int;
  slo_breaches : (string * int) list;
      (** [slo_breach] records tallied per rule, sorted *)
  policy_updates : policy_row list;  (** in trace order *)
  span_us : float;            (** run span: the largest timestamp seen,
                                  pause ends included *)
}

(** [of_lines lines] folds one JSONL line per element; empty lines are
    skipped.  The first schema-invalid line (including a version
    mismatch) aborts with [Error "line N: ..."]. *)
val of_lines : string list -> (t, string) result

(** [of_file path] reads and folds a trace file. *)
val of_file : string -> (t, string) result

(** [merge a b] unions two profiles for cross-run policy derivation
    (`emit-policy --merge`): per-site counters and whole-run totals sum
    — so {!old_fraction} of the merged profile is the
    allocation-weighted combination of the runs — while gauges (backend
    snapshots) keep the later profile's value and pauses / censuses /
    decisions concatenate in argument order. *)
val merge : t -> t -> t

(** [site_stats t ~site] looks up one site's totals. *)
val site_stats : t -> site:int -> site option

(** The fraction of this site's allocated objects that survived their
    first collection ([first_objects / alloc_objects]; 0 when nothing
    was allocated).  Objects the policy pretenured count as surviving —
    they were placed old by fiat — so a policy-driven re-run reports the
    same fractions as the profiled run that produced the policy. *)
val old_fraction : site -> float

(** [select_pretenure t ~cutoff ~min_objects] applies the paper's rule:
    sites with [old_fraction >= cutoff] and at least [min_objects]
    allocated objects, sorted.  [cutoff = 0.8] and [min_objects = 32]
    reproduce the harness's live-profiler selection. *)
val select_pretenure : t -> cutoff:float -> min_objects:int -> int list

(** Exact pause-time percentiles (nearest-rank) in microseconds. *)
type percentiles = {
  count : int;
  p50 : float;
  p90 : float;
  p99 : float;
  p999 : float;
  max_us : float;
  total_us : float;
}

(** [percentiles_of durs] summarises a raw duration sample; [None] when
    empty.  The percentiles are nearest-rank (the [ceil(q*n)]-th
    smallest value), found by selection in expected linear time rather
    than a sort, on a copy ([durs] is left as it was); [total_us] sums
    [durs] in their given order.  Exposed so
    the online monitor ({!Slo}) and per-tenant reports share the exact
    arithmetic with the offline analyzer. *)
val percentiles_of : float array -> percentiles option

(** [group_percentiles samples tags ~groups] summarises a tagged sample
    group by group without copying it: sample [i] belongs to group
    [Bytes.get_uint16_ne tags (2 * i)], and entry [g] of the result is
    what {!percentiles_of} gives on group [g]'s samples in input order
    ([None] for an empty group), [total_us] bit for bit.  [samples] and
    the first [2 * Array.length samples] bytes of [tags] are permuted in
    place.  Serve's per-tenant reports and the per-kind pause tables
    all come from here.
    @raise Invalid_argument if [groups > 65_536] (the tag width), if
    [tags] holds fewer than two bytes per sample or if a tag is not
    below [groups]; nothing is permuted then. *)
val group_percentiles :
  float array -> Bytes.t -> groups:int -> percentiles option array

(** [kind_percentiles ~kinds durs] is one entry per distinct kind plus
    ["all"], sorted by name, where [kinds.(i)] is the kind of [durs.(i)]
    (arrays of equal length); empty when there is no sample.  [durs] is
    permuted in place.  {!pause_percentiles} and [Slo.percentiles] share
    it. *)
val kind_percentiles :
  kinds:string array -> float array -> (string * percentiles) list

(** [pause_percentiles t] is one entry per collection kind plus ["all"],
    sorted by kind; empty when the trace has no pauses. *)
val pause_percentiles : t -> (string * percentiles) list

(** [mmu t ~window_us] is the minimum mutator utilisation over every
    window of [window_us] microseconds inside the run span: the least
    fraction of any such window not spent in a collection pause.
    Conventions: a zero-pause trace has MMU 1 for every window; a window
    not longer than 0 or an empty span reports 1; [window_us >= span_us]
    degenerates to the run-wide utilisation [1 - total_pause / span].
    Candidate windows need only be examined at pause boundaries, so the
    cost is O(pauses²). *)
val mmu : t -> window_us:float -> float

(** [mmu_of ~pauses ~span_us ~window_us] is {!mmu} over raw
    [(start_us, dur_us)] pauses — the shared kernel {!Slo} evaluates on
    its live-collected pauses, guaranteeing online = offline exactly. *)
val mmu_of :
  pauses:(float * float) list -> span_us:float -> window_us:float -> float

(** [mmu_curve t ~windows_us] evaluates {!mmu} at each window size,
    returning [(window_us, mmu)] pairs in the given order. *)
val mmu_curve : t -> windows_us:float list -> (float * float) list
