(** Persisted pretenuring policies — the file format that closes the
    profile-driven loop (Section 6).

    This is the only on-disk form of a pretenuring decision.  Either a
    profiled run's JSONL trace, folded by the offline analyzer
    ({!Obs.Profile}, {!of_profile}), or the live profiler's data
    ({!of_profile_data}) yields a policy; {!save} writes it as one JSON
    document; a later run {!load}s it and pretenures without any
    profiler attached.

    The file carries the trace-format version ({!Obs.Event.version}): a
    policy emitted by one build is rejected with a clear error by a
    build whose trace schema differs, the same guard the trace reader
    applies. *)

type t = {
  cutoff : float;      (** old-fraction threshold the sites passed *)
  min_objects : int;   (** minimum allocated objects the sites passed *)
  sites : int list;    (** pretenured allocation sites, sorted *)
  scan_elision : bool; (** skip the pretenured-region scan (Section 7.2) *)
}

(** [of_profile p ~cutoff ~min_objects ~scan_elision] applies the
    paper's rule to an analyzed trace: sites with
    [Obs.Profile.old_fraction >= cutoff] and at least [min_objects]
    allocations are pretenured; [scan_elision] is carried as is.  Over
    a fully-traced run this equals {!of_profile_data} on the live
    profiler's data: both build the policy through one function. *)
val of_profile :
  Obs.Profile.t ->
  cutoff:float ->
  min_objects:int ->
  scan_elision:bool ->
  t

(** [of_profile_data data ~cutoff ~min_objects ~scan_elision] applies
    the same rule to the live profiler's data
    ({!Heap_profile.Profile_data.select_pretenure_sites}); this is what
    [repro profile -o] writes and what {!Pretenure.of_profile} runs
    under. *)
val of_profile_data :
  Heap_profile.Profile_data.t ->
  cutoff:float ->
  min_objects:int ->
  scan_elision:bool ->
  t

val to_json : t -> Obs.Json.t

(** [of_json j] validates shape and version, with a field-naming error
    message on failure. *)
val of_json : Obs.Json.t -> (t, string) result

(** [save t path] writes the policy as one JSON document (plus a
    trailing newline). *)
val save : t -> string -> unit

(** [load path] reads, parses and validates a saved policy. *)
val load : string -> (t, string) result
