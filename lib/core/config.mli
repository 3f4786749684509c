(** Runtime configuration: which collector, how much memory, and which of
    the paper's techniques are switched on.

    The four configurations compared throughout the paper are:

    - {!semispace}: semispace collection,
    - {!generational}: generational collection,
    - {!with_markers}: generational + generational stack collection,
    - {!with_pretenuring}: generational + stack markers + pretenuring. *)

type collector_kind =
  | Semispace
  | Generational

(** How raised exceptions interact with the stack markers (Section 5
    discusses both).  [Eager_watermark] updates the watermark M at every
    raise; [Deferred_handler_walk] records unwinds and folds them into
    the marker state at the next collection (the paper's alternative,
    which moves the bookkeeping cost from the raise into the
    collector). *)
type exception_strategy =
  | Eager_watermark
  | Deferred_handler_walk

type t = {
  collector : collector_kind;
  budget_bytes : int;  (** k * Min; the total memory grant *)
  (* semispace parameters *)
  semispace_target_liveness : float;  (** paper: 0.10 *)
  semispace_initial_bytes : int;      (** starting soft limit *)
  (* generational parameters *)
  nursery_bytes_max : int;            (** paper: 512 KB *)
  tenured_target_liveness : float;    (** paper: 0.3 *)
  los_threshold_words : int;          (** arrays at least this big bypass
                                          the nursery *)
  barrier : Collectors.Generational.barrier_kind;
  tenure_threshold : int;             (** 1 = immediate promotion (the
                                          paper); >1 = aging nursery
                                          (Section 7.2) *)
  parallelism : int;                  (** drain domains for the copying
                                          fixpoint; 1 = the sequential
                                          engine (default), >1 = the
                                          work-stealing [Par_drain]
                                          engine.  Applies to both
                                          collectors. *)
  parallelism_mode : Collectors.Par_drain.mode;
                                      (** [Virtual] (default) drives the
                                          drain domains from the
                                          deterministic discrete-event
                                          scheduler; [Real] runs true
                                          OCaml 5 domains for wall-clock
                                          parallelism *)
  chunk_words : int;                  (** parallel-drain copy-chunk size
                                          in words; 0 (default) = engine
                                          default *)
  census_period : int;                (** generational only: emit a heap
                                          census every this-many
                                          collections while tracing;
                                          0 (default) disables census
                                          bookkeeping entirely *)
  tenured_backend : Alloc.Backend.kind;
                                      (** placement policy for pretenured
                                          allocations (default [Bump],
                                          the pre-backend behaviour) *)
  los_backend : Alloc.Backend.kind;   (** placement policy for the
                                          large-object space (default
                                          [Free_list]) *)
  major_kind : Collectors.Generational.major_kind;
                                      (** generational only: how the
                                          tenured space is collected.
                                          [Copying] (default) evacuates;
                                          [Mark_sweep] marks in place and
                                          sweeps dead objects back into
                                          [tenured_backend] as reusable
                                          holes (requires
                                          [parallelism = 1]) *)
  header_layout : Mem.Header.layout;  (** [Classic] (default) keeps the
                                          three-word header bit-for-bit;
                                          [Packed] folds the metadata into
                                          one word, plus a birth word only
                                          when profiling/tracing is on
                                          (docs/LAYOUT.md) *)
  eager_evac : bool;                  (** copying engines evacuate a
                                          record's children depth-first
                                          next to their parent (bounded;
                                          docs/LAYOUT.md) instead of
                                          breadth-first *)
  (* generational stack collection *)
  stack_markers : bool;
  marker_spacing : int;               (** paper: n = 25 *)
  exception_strategy : exception_strategy;
  (* profiling and pretenuring *)
  profiling : bool;                   (** gather heap profiles (slow) *)
  pretenure : Pretenure.t;
  adaptive : bool;                    (** generational only: run the
                                          {!Control} plane at collection
                                          boundaries — online per-site
                                          pretenure enable/disable from
                                          windowed survival counts, each
                                          decision emitted as a
                                          [policy_update] trace event
                                          (docs/ADAPTIVE.md).  Off by
                                          default: behaviour is then
                                          bit-for-bit the static
                                          configuration. *)
  (* latency objectives *)
  slo : Obs.Slo.target;               (** declarative latency targets the
                                          online monitor enforces when one
                                          is attached ([Obs.Slo.no_target]
                                          by default: every rule off).
                                          The config only carries the
                                          targets; attaching the monitor
                                          is the harness's call
                                          ([gc-serve], docs/SLO.md) *)
  (* runtime *)
  global_slots : int;                 (** size of the global root table *)
  verify_heap : bool;                 (** walk and check the whole heap
                                          after every collection (slow;
                                          tests and debugging) *)
}

(** Baseline defaults matching Section 2.1 (markers off, no pretenuring,
    no profiling). *)
val default : budget_bytes:int -> t

val semispace : budget_bytes:int -> t
val generational : budget_bytes:int -> t
val with_markers : budget_bytes:int -> t
val with_pretenuring : budget_bytes:int -> Pretenure.t -> t

(** [with_policy_file ~budget_bytes path] is {!with_pretenuring} with
    the policy loaded from a {!Policy_file} (written by [repro profile
    -o] or [repro gc-profile emit-policy]) — a run configured this way
    pretenures from an earlier run's profile with no profiler
    attached.  Errors (unreadable file, version mismatch, malformed
    policy) are returned, not raised. *)
val with_policy_file : budget_bytes:int -> string -> (t, string) result

(** [name t] is a short label for tables: ["semi"], ["gen"],
    ["gen+marker"], ["gen+marker+pretenure"]. *)
val name : t -> string

(** The generational-collector configuration [t] resolves to — exactly
    what {!Runtime.create} hands to [Collectors.Generational.create]
    under [collector = Generational].  Exposed so tooling (gc-serve's
    adaptive replay check) can seed its replay with the collector's
    [pretenured_init] without duplicating the field mapping. *)
val generational_config : t -> Collectors.Generational.config
