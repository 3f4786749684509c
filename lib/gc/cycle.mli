(** Pieces of a collection cycle shared by {!Semispace} and
    {!Generational}: the roots phase, the copy-engine dispatch, per-site
    allocation and survival accounting, the profiling death sweep and
    the allocation epilogue.  Each piece owns exactly the [Gc_stats]
    timer interval and trace records documented on it, so a collector
    built from them keeps its pause decomposition (docs/COLLECTORS.md). *)

(** The collection clock: wall time in integer nanoseconds, so that
    timestamps pass between the cycle's pieces and sum into the
    [Gc_stats] timers without boxing a float. *)
val now : unit -> int

(** [us ns] is [ns] in microseconds, the trace's span unit. *)
val us : int -> float

(** [roots ~hooks ~stats ~traced ~t0 ~roots mode] empties the
    collector's reused root buffer [roots] and refills it with the stack
    and global roots, both under [mode], and returns the end time.  The
    interval from [t0] to it is credited to [stack_ns] and, when
    [traced], emitted as the [roots] phase span. *)
val roots :
  hooks:Hooks.t -> stats:Gc_stats.t -> traced:bool -> t0:int ->
  roots:Rstack.Root.Buf.t -> Rstack.Scan.mode -> int

(** {1 The copy engine} *)

(** The sequential {!Cheney} oracle or the {!Par_drain} work-stealing
    drain. *)
type engine =
  | Seq of Cheney.t
  | Par of Par_drain.t

(** Whether a collector configured with [parallelism] drains in
    parallel when nothing else forces the sequential engine (see
    {!engine}); collectors size their to-space headroom by it. *)
val parallel : parallelism:int -> bool

(** [chunk_opt n] is the engines' optional [chunk_words] for a config
    value [n] ([0] = engine default). *)
val chunk_opt : int -> int option

(** Build the engine for one collection.  The parallel drain is chosen
    iff {!parallel} holds and neither [aging] nor [promote_alloc] is
    given (the packet protocol carries neither); the arguments are
    otherwise those of {!Cheney.create} and {!Par_drain.create}. *)
val engine :
  mem:Mem.Memory.t ->
  in_from:(Mem.Addr.t -> bool) ->
  to_space:Mem.Space.t ->
  ?aging:Cheney.aging ->
  ?remember:(loc:Mem.Addr.t -> owner:Mem.Addr.t option -> unit) ->
  ?promote_alloc:(int -> Mem.Addr.t) ->
  ?card_scan:((Mem.Addr.t -> unit) -> int -> unit) ->
  los:Los.t option ->
  trace_los:bool ->
  promoting:bool ->
  eager:bool ->
  site_tallies:bool ->
  parallelism:int ->
  mode:Par_drain.mode ->
  chunk_words:int ->
  unit ->
  engine

(** [in_from engine a]: [a] lies in the region the engine evacuates. *)
val in_from : engine -> Mem.Addr.t -> bool

(** Rewrite one heap location (sequential) or stage it (parallel). *)
val visit_loc : engine -> Mem.Addr.t -> unit

(** Rewrite an object's pointer fields (sequential) or stage it. *)
val visit_fields : engine -> Mem.Addr.t -> unit

(** [visit_card engine ~scan card] rewrites a marked card in place
    through [scan e card], [e] the sequential engine, or stages it for
    the drain's own [card_scan]. *)
val visit_card : engine -> scan:(Cheney.t -> int -> unit) -> int -> unit

(** [drain engine ~stats roots] visits [roots], runs the drain to its
    fixpoint and credits the scan work to [stats]' per-domain slots. *)
val drain : engine -> stats:Gc_stats.t -> Rstack.Root.Buf.t -> unit

val copied : engine -> int
val promoted : engine -> int

(** Per-site survival tallies, as {!Cheney.site_survivals}. *)
val survivals : engine -> (int * int * int * int) list

(** [trace_copy engine ~with_promoted ~dur_us] emits the [copy] phase
    span ([copied_w], [promoted_w] when [with_promoted], [scanned_w],
    and [steals] for a parallel drain), then one [copy.dN] span per
    parallel worker carrying its virtual time. *)
val trace_copy : engine -> with_promoted:bool -> dur_us:float -> unit

(** {1 Per-site accounting} *)

(** Whether a collector keeps per-site allocation and survival rows for
    a collection under [hooks]: while tracing in detail, or when the
    runtime installed object hooks (it is profiling, and folds the rows
    it receives through [after_collection]).  The generational
    collector's control plane also needs them. *)
val site_tallies : Hooks.t -> bool

(** Emit one [site_survival] record per row while tracing in detail. *)
val emit_survivals : (int * int * int * int) list -> unit

(** Per-site [(objects, words)] allocated since the last flush; a
    no-op table when nobody consumes the rows. *)
type site_allocs

val site_allocs : bool -> site_allocs

(** [flush_site_allocs sites] empties the table and returns its rows
    sorted by site, emitting one [site_alloc] record per row while
    tracing in detail. *)
val flush_site_allocs : site_allocs -> (int * int * int) list

(** {1 Collection and allocation epilogues} *)

(** [profile_sweep ~mem ~hooks ~stats ~traced ~since space] reports
    every unforwarded object of the collected [space] to the profiler's
    [on_die] (a no-op without object hooks).  The interval from [since]
    is credited to [profile_ns] and emitted as the [profile_sweep]
    span. *)
val profile_sweep :
  mem:Mem.Memory.t -> hooks:Hooks.t -> stats:Gc_stats.t -> traced:bool ->
  since:int -> Mem.Space.t -> unit

(** Count one fresh object of [words] with header tag [tag] in the
    allocation counters and the per-site table. *)
val count_alloc :
  stats:Gc_stats.t -> sites:site_allocs -> tag:int -> site:int -> words:int ->
  unit

(** [finish_alloc ~stats ~sites cells ~tag ~len ~mask ~site ~birth base]
    writes the header and zeroes the payload through [cells], the block
    handle of the space [base] was granted from (no block lookup),
    counts the object and returns [base].  The fields have passed
    {!Mem.Header.validate_fields}. *)
val finish_alloc :
  stats:Gc_stats.t -> sites:site_allocs -> int array -> tag:int -> len:int ->
  mask:int -> site:int -> birth:int -> Mem.Addr.t -> Mem.Addr.t
