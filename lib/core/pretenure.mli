(** The pretenuring policy (Section 6).

    A policy names the allocation sites whose objects go straight into
    the tenured generation, and whether the minor collection skips the
    young-pointer scan of the pretenured region (scan elision, Section
    7.2).  Under elision a young pointer stored into a fresh pretenured
    object goes through the write barrier instead
    ([Runtime.init_field]), so the skip is sound for every pretenured
    site, the adaptively promoted ones included. *)

type t

(** No site is pretenured. *)
val none : t

(** [of_sites ~sites ~scan_elision] builds a policy directly (tests and
    hand-written policies). *)
val of_sites : sites:int list -> scan_elision:bool -> t

(** [of_profile data ~cutoff ~min_objects ~scan_elision] derives a policy
    from a heap profile: sites with old-fraction at least [cutoff] (paper:
    0.8) and at least [min_objects] observed objects are pretenured, and
    [scan_elision] is carried as is.  It is {!of_policy} over
    {!Policy_file.of_profile_data}, so a run that profiles in-process
    and a run that loads the file [repro profile -o] wrote pretenure
    the same sites. *)
val of_profile :
  Heap_profile.Profile_data.t ->
  cutoff:float ->
  min_objects:int ->
  scan_elision:bool ->
  t

(** [of_policy p] builds the policy a {!Policy_file.t} describes: a
    run configured with a loaded one pretenures from an earlier run's
    profile with no profiler attached. *)
val of_policy : Policy_file.t -> t

val is_empty : t -> bool

(** The pretenured sites, ascending: the runtime turns them into its
    per-site table at [Runtime.create]. *)
val pretenured_sites : t -> int list

(** Whether the minor collection skips the pretenured-region scan. *)
val scan_elision : t -> bool

val pp : Format.formatter -> t -> unit
