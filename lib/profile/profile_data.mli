(** Heap-profile summaries.

    A profiling run produces this value; the pretenuring decision
    derived from it ([Gsc.Policy_file.of_profile_data]) is what a later
    production run loads ("profile-driven": the prediction is made
    before the final execution, Section 6).  The summary itself is not
    saved. *)

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
