(** The online SLO monitor: live pause percentiles, an online MMU
    estimator and declarative latency targets, fed from the tracer.

    {!Trace.enable}'s [?slo] argument attaches a monitor; the tracer
    then calls {!observe} (under its own lock) for every stamped event,
    and turns each returned {!breach} into an [slo_breach] trace record
    stamped immediately after the breaching [gc_end].  {!Metrics} counts
    those records under ["slo.breach"] / ["slo.breach.<rule>"].

    {b Exactness doctrine} (pinned by tests): the end-of-run reads
    ({!percentiles}, {!mmu}) evaluate the {e same} kernels the offline
    analyzer uses — {!Profile.kind_percentiles} and {!Profile.mmu_of} —
    on the same 0.1µs-quantised values the serialiser writes, so
    [Slo] at end of run and [Profile] on the identical trace agree
    exactly, not approximately.  The {e streaming} breach rules are the
    monitoring-time variants: p99/p99.9 are nearest-rank over the
    pauses seen so far, and the ["mmu"] rule checks utilisation of the
    complete trailing window ending at each pause (the run's first
    window is grace) — see [docs/SLO.md]. *)

(** Declarative targets; [None] disables a rule. *)
type target = {
  max_pause_us : float option;  (** every pause must be <= this *)
  p99_us : float option;        (** running p99 must be <= this *)
  p999_us : float option;       (** running p99.9 must be <= this *)
  min_mmu : float option;       (** utilisation floor in [0,1] over
                                    trailing [mmu_window_us] windows *)
  mmu_window_us : float;        (** the MMU window (also the reporting
                                    window); default 10ms *)
}

(** All rules disabled, window 10ms. *)
val no_target : target

(** One violated rule at one collection; mirrors the [slo_breach] trace
    record ([observed_us > limit_us] uniformly — busy time vs allowed
    busy time for the ["mmu"] rule). *)
type breach = {
  rule : string;
  observed_us : float;
  limit_us : float;
  window_us : float;
}

type t

(** [create ?on_breach target] — [on_breach] fires once per breach,
    {e outside} the tracer's lock (so it may dump a {!Flight} ring or
    write files, but must not assume the trace sink is quiescent). *)
val create : ?on_breach:(breach -> unit) -> target -> t

val target_of : t -> target

(** [observe t ~gc ~t_us e] folds one stamped event; returns the rules
    newly breached (usually []).  Called by the tracer under its lock —
    call it directly only in tests. *)
val observe : t -> gc:int -> t_us:float -> Event.t -> breach list

(** [notify t br] runs the [on_breach] callback, if any.  Called by the
    tracer after releasing its lock. *)
val notify : t -> breach -> unit

(** {1 Live reads} *)

val pause_count : t -> int

(** [pause_dur t i] / [pause_kind t i] index pauses in trace order —
    the serve harness uses the deltas to attribute pauses to the
    request in flight. *)
val pause_dur : t -> int -> float

val pause_kind : t -> int -> string

(** Largest quantised timestamp seen (pause ends included) — equals
    [Profile.span_us] of the same trace. *)
val span_us : t -> float

(** Streaming nearest-rank percentile over all pauses so far (0 when
    none) — the value the p99/p99.9 rules compare. *)
val percentile : t -> float -> float

(** {1 End-of-run reads (exact)} *)

(** Same shape and values as [Profile.pause_percentiles] on the
    identical trace: one entry per kind plus ["all"], sorted. *)
val percentiles : t -> (string * Profile.percentiles) list

(** Same value as [Profile.mmu] on the identical trace. *)
val mmu : t -> window_us:float -> float

(** Breach counts per rule, sorted; and their sum. *)
val breaches : t -> (string * int) list

val breach_total : t -> int

(** [quant v] rounds [v] to the one decimal the serialiser writes
    (["%.1f"]) — the quantisation that makes online statistics equal
    offline ones exactly. *)
val quant : float -> float
