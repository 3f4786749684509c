(** The in-process metrics registry: counters, gauges and log-scaled
    histograms, snapshot-able as JSON.

    A registry is passive — it never samples anything itself.  It is fed
    either directly ({!incr}, {!observe}, {!set_gauge}) or by attaching
    it to the tracer ([Trace.enable ~metrics]), which folds every trace
    event into the conventional metric names below via {!record}.

    Metric names fed by the trace tap:

    - [pause_us.<kind>], [pause_us.all] — histograms of collection
      pauses in microseconds;
    - [gc.<kind>] — collections counted by kind;
    - [copied_w], [promoted_w] — counters; [live_w] — gauge;
    - [heap.nursery_w], [heap.tenured_w], [heap.los_w] — gauges sampled
      at each collection start;
    - [phase_us.<name>] — counter of microseconds per phase, the floor
      of the summed span durations (sub-microsecond spans carry over);
      [phase.<name>.<counter>] — the phase's work counters;
    - [scan.frames_decoded], [scan.frames_reused], [scan.slots_decoded],
      [scan.roots] — stack-scan counters;
    - [site.<id>.survived_w], [site.<id>.survived_objects],
      [site.<id>.first_survivals], [site.<id>.alloc_objects],
      [site.<id>.alloc_w], [site.<id>.pretenured_w] — per-site
      allocation/survival/pretenure counters;
    - [census.records] — census records seen (censuses are live-heap
      snapshots, so they fold into no cumulative counter — the offline
      analyzer consumes them);
    - [markers.installed], [unwinds] — counters. *)

module Histogram : sig
  (** A base-2 log-scaled histogram of non-negative integers.

      Bucket 0 holds exactly the value 0; bucket [i >= 1] holds the
      values in [[2^(i-1), 2^i)].  Every representable non-negative
      [int] (up to [max_int]) lands in a bucket. *)

  type t

  val create : unit -> t

  (** [observe h v] adds one observation.  Negative values clamp to 0. *)
  val observe : t -> int -> unit

  (** [bucket_index v] is the bucket [v] lands in. *)
  val bucket_index : int -> int

  (** [bucket_bounds i] is the half-open range [\[lo, hi)] of bucket [i];
      the last bucket's [hi] clamps to [max_int]. *)
  val bucket_bounds : int -> int * int

  (** Number of buckets ([bucket_index max_int + 1]). *)
  val bucket_count : int

  (** Total observations. *)
  val count : t -> int

  (** Sum of observed values. *)
  val total : t -> int

  (** Largest observed value; 0 if empty. *)
  val max_value : t -> int

  (** [buckets h] lists the non-empty buckets as [(lo, hi, count)] in
      increasing order. *)
  val buckets : t -> (int * int * int) list
end

type t

val create : unit -> t

(** [incr t name by] adds [by] to counter [name], creating it at 0.
    @raise Invalid_argument if [name] exists as a different kind. *)
val incr : t -> string -> int -> unit

(** [set_gauge t name v] sets gauge [name]. *)
val set_gauge : t -> string -> int -> unit

(** [observe t name v] adds an observation to histogram [name]. *)
val observe : t -> string -> int -> unit

(** [get_counter t name] is the counter's value, 0 when absent. *)
val get_counter : t -> string -> int

val get_gauge : t -> string -> int option
val get_histogram : t -> string -> Histogram.t option

(** Registered names of each kind, sorted. *)
val counter_names : t -> string list

val gauge_names : t -> string list
val histogram_names : t -> string list

(** [record t e] folds one trace event into the conventional metrics
    (see the name list above).  The trace tap calls this. *)
val record : t -> Event.t -> unit

(** [to_json t] snapshots the registry:
    [{"counters":{...},"gauges":{...},"histograms":{name:
    {"count":n,"total":n,"buckets":[[lo,hi,count],...]},...}}], all
    names sorted. *)
val to_json : t -> string
