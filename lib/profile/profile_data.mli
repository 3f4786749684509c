(** Serializable heap-profile summaries.

    A profiling run produces this value; a later production run loads it
    to drive pretenuring ("profile-driven": the prediction is made before
    the final execution, Section 6). *)

type site = {
  site : int;
  name : string;
  alloc_bytes : int;
  alloc_count : int;
  old_fraction : float;   (** survivors of first collection / allocated *)
  avg_age_kb : float;
  copied_bytes : int;
}

type t = {
  sites : site list;           (** ascending by site id *)
  edges : (int * int) list;    (** observed site points-to edges *)
  total_alloc_bytes : int;
  total_copied_bytes : int;
}

(** [select_pretenure_sites t ~cutoff ~min_objects] returns the sites
    whose old-fraction is at least [cutoff] (the paper uses 0.8) and that
    allocated at least [min_objects] objects (guards against noise from
    sites observed a handful of times). *)
val select_pretenure_sites : t -> cutoff:float -> min_objects:int -> int list

(** [targeted_shares t ~sites] is [(copied_share, alloc_share)]: the
    fraction of all copied / allocated bytes attributable to [sites]
    (the two percentages in Figure 2's summary). *)
val targeted_shares : t -> sites:int list -> float * float

(** Textual round-trip (a small line-oriented format). *)
val save : t -> path:string -> unit

(** [load ~path] reads a saved profile; an unreadable file or a
    malformed line is an [Error] naming the problem. *)
val load : path:string -> (t, string) result

(** In-memory round-trip helpers used by the tests.  [of_string]
    raises [Invalid_argument] naming the first malformed line. *)
val to_string : t -> string

val of_string : string -> t
