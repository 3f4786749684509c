(** The pretenuring policy (Section 6).

    A policy names the allocation sites whose objects go straight into
    the tenured generation, and — with scan elision on — the subset whose
    pretenured regions never need the young-pointer scan (Section 7.2). *)

type t

(** No site is pretenured. *)
val none : t

(** [of_sites ~sites ~no_scan] builds a policy directly (tests and
    hand-written policies).  [no_scan] must be a subset of [sites].
    @raise Invalid_argument otherwise. *)
val of_sites : sites:int list -> no_scan:int list -> t

(** [of_profile data ~cutoff ~min_objects ~scan_elision] derives a policy
    from a heap profile: sites with old-fraction at least [cutoff] (paper:
    0.8) and at least [min_objects] observed objects are pretenured; with
    [scan_elision] the observed points-to edges additionally exempt
    scan-free sites.  It is {!of_policy} over
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
    profile with no profiler attached.  Loaded and derived policies
    are already validated, so this cannot raise. *)
val of_policy : Policy_file.t -> t

val is_empty : t -> bool

(** The pretenured sites and the scan-free ones, ascending: the runtime
    turns them into its per-site table at [Runtime.create]. *)
val pretenured_sites : t -> int list
val no_scan_sites : t -> int list
val pp : Format.formatter -> t -> unit
