(** The structured GC trace emitter.

    One process-global tracer, off by default.  While enabled it writes
    one JSONL record per {!Event.t} to the active sink and optionally
    folds each event into a {!Metrics.t} registry.  The full record
    schema lives in [docs/TRACING.md].

    {b Overhead contract}: with tracing disabled every emitter returns
    after one mutable-ref read — no allocation, no system call, no
    formatting.  Instrumented code must guard any {e argument
    computation} of its own (extra [gettimeofday] calls, count
    deltas...) behind {!enabled}; the [hotpath.minor_gc.untraced] bench
    (vs the [hotpath.minor_gc.raw] trajectory in [BENCH_gc.json]) pins
    the contract.

    Collections never nest (the collectors reject re-entrant
    collection), so the tracer keeps a single current-collection
    ordinal: {!gc_begin} increments it and every record carries it.

    {b Concurrent sink}: records emitted between a [gc_begin] and its
    [gc_end] are stamped (seq / timestamp / ordinal / domain) immediately
    but serialised and written {e after} the pause — the matching
    [gc_end] drains the buffer, so pauses pay only the stamp and a
    vector push while the output stays byte-identical to immediate
    writing.  {!Metrics} folding happens at drain time, in emit order.

    {b Thread safety}: every emitter (and {!flush}) takes the tracer's
    single internal mutex, so records may be emitted from any domain —
    the real-mode parallel drain's workers included — and each JSONL
    line is written whole, never interleaved.  [seq] stays globally
    monotonic across domains; the envelope's ["dom"] field records the
    emitting domain.  {!enable} / {!disable} themselves are not
    serialised against in-flight emitters: bring domains to a
    quiescent point (e.g. outside a collection) before toggling.

    {b Async writer}: with [~async:true] a dedicated writer domain
    drains the record queue, so emitters pay only a stamp, a queue push
    and a condition signal — serialisation and channel writes leave the
    emitting domain entirely.  Output remains byte-identical (records
    are stamped at emit time and written in emit order); {!flush} blocks
    until the writer has drained, and {!disable} joins the writer after
    it drains.  Default is synchronous. *)

(** Where records go. *)
type sink

val channel : out_channel -> sink
val buffer : Buffer.t -> sink

(** [ring fl] stores stamped envelopes into the flight-recorder ring
    instead of serialising them — the always-on production mode.  With
    a ring sink {!detailed} is [false]: collectors keep the
    control-plane events but skip the per-site data-plane accounting
    (survival tables, alloc deltas, censuses), keeping the recorder
    inside the ≤2% overhead bar ([hotpath.minor_gc.flight]). *)
val ring : Flight.t -> sink

(** [enable ?metrics ?slo ?clock ?async sink] switches tracing on.
    [clock] supplies timestamps in seconds ([Unix.gettimeofday] by
    default; tests install a deterministic counter).  Timestamps are
    reported as microseconds since [enable].  Re-enabling replaces the
    previous sink.  Every enable restarts the [seq] and [gc] envelope
    counters.  [~async:true] spawns the background writer domain (see
    the module header); default [false].  [?slo] attaches the online
    SLO monitor: every stamped event is folded into it, and breaches
    are emitted as [slo_breach] records right after the breaching
    [gc_end] (sharing its timestamp and ordinal); breach callbacks run
    outside the tracer's lock. *)
val enable :
  ?metrics:Metrics.t -> ?slo:Slo.t -> ?clock:(unit -> float) ->
  ?async:bool -> sink -> unit

(** [disable ()] switches tracing off, drains any records still buffered
    or queued (joining the async writer domain if one is running), and
    flushes channel sinks (the caller owns closing them). *)
val disable : unit -> unit

(** [flush ()] drains any buffered in-pause records now; under
    [~async:true] it blocks until the writer domain has written every
    queued record.  Normally unnecessary — the tracer drains at every
    [gc_end] and on {!disable} — but useful when inspecting the sink
    mid-collection (e.g. from a heap-verification failure handler). *)
val flush : unit -> unit

(** [enabled ()] is the guard instrumented code checks before computing
    event arguments. *)
val enabled : unit -> bool

(** [detailed ()] is [enabled] minus flight-only mode: true only when
    the sink is a channel or buffer (full tracing).  Per-site
    data-plane accounting — survival tables, alloc-delta tracking,
    censuses, the birth word — gates on this, so a ring sink records
    cheaply. *)
val detailed : unit -> bool

(** [with_file ?metrics ?slo ?async path f] traces [f ()] into a fresh
    file at [path]; always drains buffered records, disables and closes
    — even when [f] raises mid-collection, so a crashing workload still
    leaves a complete, schema-valid trace. *)
val with_file :
  ?metrics:Metrics.t -> ?slo:Slo.t -> ?async:bool -> string ->
  (unit -> 'a) -> 'a

(** [with_buffer ?metrics ?slo ?clock ?async buf f] traces [f ()] into
    [buf]. *)
val with_buffer :
  ?metrics:Metrics.t -> ?slo:Slo.t -> ?clock:(unit -> float) ->
  ?async:bool -> Buffer.t -> (unit -> 'a) -> 'a

(** [with_ring ?metrics ?slo ?clock fl f] runs [f ()] with the flight
    recorder [fl] as the sink (never async — stores are cheaper than a
    queue hand-off). *)
val with_ring :
  ?metrics:Metrics.t -> ?slo:Slo.t -> ?clock:(unit -> float) ->
  Flight.t -> (unit -> 'a) -> 'a

(** {1 Emitters}

    Each is a no-op when tracing is disabled.  See {!Event.t} for field
    meaning. *)

val gc_begin : kind:string -> nursery_w:int -> tenured_w:int -> los_w:int -> unit

val gc_end :
  kind:string -> pause_us:float -> copied_w:int -> promoted_w:int ->
  live_w:int -> unit

val phase : name:string -> dur_us:float -> counters:(string * int) list -> unit

val stack_scan :
  mode:string -> valid_prefix:int -> depth:int -> decoded:int -> reused:int ->
  slots:int -> roots:int -> unit

val site_survival :
  site:int -> objects:int -> first_objects:int -> words:int -> unit

val site_alloc : site:int -> objects:int -> words:int -> unit
val census :
  site:int -> objects:int -> words:int -> ages:(string * int) list -> unit

val pretenure : site:int -> words:int -> unit
val marker_place : installed:int -> depth:int -> unit
val unwind : target_depth:int -> unit

val backend_stats :
  region:string -> backend:string -> live_w:int -> free_w:int ->
  free_blocks:int -> largest_hole:int -> unit

(** Normally synthesised by the attached {!Slo} monitor; public so
    external monitors (and the golden test) can stamp one. *)
val slo_breach :
  rule:string -> observed_us:float -> limit_us:float -> window_us:float ->
  unit

(** Emitted by the adaptive control plane right after the deciding
    collection's [gc_end]; see {!Event.t}'s [Policy_update] for the
    replay doctrine. *)
val policy_update :
  knob:string -> old_value:int -> new_value:int -> window:int ->
  signals:(string * int) list -> unit
