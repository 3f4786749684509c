(** Collector statistics.

    Two kinds of figures coexist:

    - *wall-clock phase timers* ([stack_ns], [copy_ns], [barrier_ns]),
      the analogue of the paper's GC / GC-stack / GC-copy columns;
    - *work counters* (frames decoded, words copied, …), deterministic
      across runs and machines, used by the test-suite and by the
      shape-comparison in EXPERIMENTS.md.

    All byte figures are [words * Mem.Memory.bytes_per_word]. *)

type t = {
  (* collections *)
  mutable minor_gcs : int;
  mutable major_gcs : int;
  (* heap traffic, in words *)
  mutable words_allocated : int;
  mutable words_alloc_records : int;
  mutable words_alloc_arrays : int;
  mutable objects_allocated : int;
  mutable words_copied : int;
  mutable words_promoted : int;       (** subset of copied: nursery exits *)
  mutable words_pretenured : int;     (** allocated straight into tenured *)
  mutable words_region_scanned : int; (** pretenured-region scan work *)
  mutable words_region_skipped : int; (** scan elision savings (Section 7.2) *)
  mutable region_scan_fallbacks : int;
      (** pointer fields of pretenured records initialised to a nursery
          object under scan elision, so recorded in the write barrier
          instead
          (DESIGN.md §5r); not counted in [pointer_updates] *)
  mutable words_los_freed : int;      (** returned to the LOS backend by sweeps *)
  mutable words_marked : int;
      (** live words marked in place by mark-sweep majors (tenured +
          LOS); stays [0] under the copying major *)
  mutable words_swept_free : int;
      (** dead tenured words returned to the allocation backend by
          mark-sweep majors ([Alloc.Backend.free]); the large-object
          share is counted separately in {!words_los_freed} *)
  mutable major_kind : string;
      (** which major collector mutates this record: ["copying"]
          (default) or ["mark_sweep"]; a label, not a counter *)
  words_scanned_dom : int array;
      (** drain scan work, one slot per drain domain ({!max_domains}
          slots; the sequential engine uses slot 0).  Kept per-domain so
          parallel drains never share a counter cell; read the total
          through {!words_scanned}. *)
  mutable max_live_words : int;       (** high-water mark sampled at GCs *)
  mutable live_words_after_gc : int;
  (* mutator work (the runtime counts field accesses, calls and stores;
     used by the harness's simulated clock) *)
  mutable mutator_ops : int;
  (* write barrier *)
  mutable pointer_updates : int;
  mutable barrier_entries_processed : int;
  (* stack scanning *)
  mutable frames_decoded : int;
  mutable frames_reused : int;
  mutable slots_decoded : int;
  mutable roots_visited : int;
  mutable depth_sum_at_gc : int;
  mutable depth_max_at_gc : int;
  mutable new_frames_sum : int;
  mutable marker_stubs_installed : int;
  mutable marker_stub_hits : int;   (** stub activations (mutator side) *)
  mutable exception_unwinds : int;  (** simulated raises that unwound *)
  (* phase timers, nanoseconds: integers, so a collection adds to them
     without boxing a float *)
  mutable stack_ns : int;
  mutable copy_ns : int;
  mutable barrier_ns : int;           (** write-barrier drain *)
  mutable profile_ns : int;           (** death sweeps; profiling runs only *)
  (* allocation-backend fragmentation, sampled after each collection:
     gauges (last value wins), not accumulating counters *)
  mutable tenured_free_words : int;
  mutable tenured_free_blocks : int;
  mutable tenured_largest_hole : int;
  mutable los_free_words : int;
  mutable los_free_blocks : int;
  mutable los_largest_hole : int;
}

val create : unit -> t

(** Size of {!t.words_scanned_dom}: the maximum drain parallelism. *)
val max_domains : int

(** Total drain scan work: [words_scanned_dom] summed at report time. *)
val words_scanned : t -> int

(** [add_scanned t ~domain words] credits [words] of drain scanning to
    [domain]'s slot.
    @raise Invalid_argument if [domain] is outside [0, max_domains). *)
val add_scanned : t -> domain:int -> int -> unit

val gcs : t -> int

(** Total GC time in seconds: stack + barrier + copy phases (profiling
    overhead excluded, as in the paper where profiled runs are reported
    separately). *)
val gc_seconds : t -> float

val bytes_allocated : t -> int
val bytes_copied : t -> int
val max_live_bytes : t -> int

(** Mean stack depth over collections. *)
val avg_depth_at_gc : t -> float

(** Mean count of frames new since the previous collection. *)
val avg_new_frames : t -> float

(** [add_scan t r] folds one {!Rstack.Scan.result} into the counters. *)
val add_scan : t -> Rstack.Scan.result -> unit

val pp : Format.formatter -> t -> unit
