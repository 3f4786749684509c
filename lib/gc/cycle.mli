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

(** Build the engine for one collection out of the space [from] (not a
    predicate: the engine keeps the block id and cell array of [from]).
    The parallel drain is chosen iff {!parallel} holds and neither
    [aging] nor [promote_alloc] is given (the packet protocol carries
    neither); the arguments are otherwise those of {!Cheney.create} and
    {!Par_drain.create}. *)
val engine :
  mem:Mem.Memory.t ->
  from:Mem.Space.t ->
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

(** [in_from engine a]: [a] lies in the engine's from-space, one
    block-id compare. *)
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
val survivals : engine -> Site_tally.t

(** [trace_copy engine ~with_promoted ~dur_us] emits the [copy] phase
    span ([copied_w], [promoted_w] when [with_promoted], [scanned_w],
    and [steals] for a parallel drain), then one [copy.dN] span per
    parallel worker carrying its virtual time. *)
val trace_copy : engine -> with_promoted:bool -> dur_us:float -> unit

(** {1 Per-site accounting} *)

(** Whether a collector keeps per-site allocation, survival and death
    rows for a collection under [hooks]: while tracing in detail, or
    when the runtime is profiling (it folds the rows it receives
    through [after_collection]).  The generational collector's control
    plane also needs the allocation and survival rows. *)
val site_tallies : Hooks.t -> bool

(** Emit one [site_survival] record per row, in site order, while
    tracing in detail. *)
val emit_survivals : Site_tally.t -> unit

(** [tally enabled] is a fresh table when [enabled], else [None]: the
    shape of every table a collector keeps only for a consumer. *)
val tally : bool -> Site_tally.t option

(** The table's rows, or {!Site_tally.empty} without a table. *)
val rows : Site_tally.t option -> Site_tally.t

(** Empty the table, if there is one. *)
val clear : Site_tally.t option -> unit

(** [emit_site_allocs sites] emits one [site_alloc] record per row of
    the per-site allocation table (objects and words allocated since
    the last collection), in site order, while tracing in detail.  A
    collection emits them as it begins and empties the table once its
    [after_collection] hook and control plane have read it. *)
val emit_site_allocs : Site_tally.t option -> unit

(** [end_collection ~alloc_sites ~deaths] drops a collection's
    allocation and death rows once its [after_collection] hook and
    control plane have read them.  A collector calls it when the
    collection returns and also when it raises, so no later flush
    repeats the rows. *)
val end_collection :
  alloc_sites:Site_tally.t option -> deaths:Site_tally.t option -> unit

(** [flush_site_allocs sites consume] emits the table's rows as
    {!emit_site_allocs} does, hands them to [consume] and empties the
    table. *)
val flush_site_allocs :
  Site_tally.t option -> (Site_tally.t -> unit) -> unit

(** {1 Collection and allocation epilogues} *)

(** [profile_sweep ~mem ~deaths ~stats ~traced ~since space] counts
    every unforwarded object of the collected [space] into the death
    table (a no-op without one).  The interval from [since] is credited
    to [profile_ns] and emitted as the [profile_sweep] span. *)
val profile_sweep :
  mem:Mem.Memory.t -> deaths:Site_tally.t option -> stats:Gc_stats.t ->
  traced:bool -> since:int -> Mem.Space.t -> unit

(** Count one fresh object of [words] with header tag [tag] in the
    allocation counters and the per-site table. *)
val count_alloc :
  stats:Gc_stats.t -> sites:Site_tally.t option -> tag:int -> site:int -> words:int ->
  unit

(** [finish_alloc ~stats ~sites cells ~tag ~len ~mask ~site ~birth base]
    writes the header and zeroes the payload through [cells], the block
    handle of the space [base] was granted from (no block lookup),
    counts the object and returns [base].  The fields have passed
    {!Mem.Header.validate_fields}. *)
val finish_alloc :
  stats:Gc_stats.t -> sites:Site_tally.t option -> int array -> tag:int -> len:int ->
  mask:int -> site:int -> birth:int -> Mem.Addr.t -> Mem.Addr.t
