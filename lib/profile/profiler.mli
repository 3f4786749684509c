(** The heap profiler (Section 6).

    For every allocation site the profiler keeps what Figure 2 reports:
    bytes and objects allocated, objects surviving the first collection
    after their creation ("% old"), bytes copied over all collections,
    and the average age at death.  Ages are measured on the allocation
    clock — bytes allocated between birth and death — and reported in
    kilobytes, matching the paper's use of allocation volume as logical
    time.

    The allocation and copy counts are not gathered per object: the
    runtime folds the collectors' per-collection site rows
    ({!fold_allocs}, {!fold_copies}), the same rows the trace's
    [site_alloc] and [site_survival] records carry.  Deaths arrive one
    object at a time through {!on_die}, from the collectors' death
    sweeps and the runtime's exit sweep.

    [note_edge] builds the site points-to graph (which sites' objects
    hold pointers to which sites' objects).  The paper obtains this from
    a data-flow analysis (Section 7.2); we substitute the observed
    points-to relation of a profiling run, which supports the same
    scan-elision decision. *)

type t

(** [create ~now_bytes] makes a profiler whose ages are measured against
    the allocation clock [now_bytes] (total bytes allocated so far). *)
val create : now_bytes:(unit -> int) -> t

(** [fold_allocs t rows] adds [(site, objects, words)] allocation rows. *)
val fold_allocs : t -> (int * int * int) list -> unit

(** [fold_copies t rows] adds one copying collection's
    [(site, objects, first_objects, words)] survival rows: every copied
    word counts towards the site's copied bytes, and [first_objects]
    (copies of objects surviving their first collection) towards its
    old fraction. *)
val fold_copies : t -> (int * int * int * int) list -> unit

(** [note_edge t ~from_site ~to_site] records that an object born at
    [from_site] held a pointer to an object born at [to_site]. *)
val note_edge : t -> from_site:int -> to_site:int -> unit

(** [on_die t ~site ~birth ~words] records one death at the current
    allocation clock (the collectors' [on_die] hook). *)
val on_die : t -> site:int -> birth:int -> words:int -> unit

(** [data t ~site_name] snapshots the profile: every site with recorded
    activity, ascending by id, and the deduplicated edges, sorted. *)
val data : t -> site_name:(int -> string) -> Profile_data.t
