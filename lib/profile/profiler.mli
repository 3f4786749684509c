(** The heap profiler (Section 6).

    For every allocation site the profiler keeps what Figure 2 reports:
    bytes and objects allocated, objects surviving the first collection
    after their creation ("% old"), bytes copied over all collections,
    and the average age at death.  Ages are measured on the allocation
    clock — bytes allocated between birth and death — and reported in
    kilobytes, matching the paper's use of allocation volume as logical
    time.

    Nothing is gathered per object: the runtime folds the collectors'
    per-collection site tables ({!fold_allocs}, {!fold_copies},
    {!fold_deaths}) — the allocation and copy rows the trace's
    [site_alloc] and [site_survival] records carry, and the death rows
    of the collectors' sweeps and the runtime's exit walk.  The
    profiler's own table is a flat array indexed by site id, so a fold
    neither hashes nor allocates once the table has grown past the
    sites it sees. *)

type t

(** [create ~now_bytes] makes a profiler whose ages are measured against
    the allocation clock [now_bytes] (total bytes allocated so far). *)
val create : now_bytes:(unit -> int) -> t

(** [fold_allocs t rows] adds allocation rows: [(objects, words)] per
    site. *)
val fold_allocs : t -> Collectors.Site_tally.t -> unit

(** [fold_copies t rows] adds one copying collection's survival rows,
    [(objects, first_objects, words)] per site: every copied word
    counts towards the site's copied bytes, and [first_objects] (copies
    of objects surviving their first collection) towards its old
    fraction. *)
val fold_copies : t -> Collectors.Site_tally.t -> unit

(** [fold_deaths t rows] adds death rows, [(objects, Σ birth)] per site
    ({!Collectors.Site_tally.note_death}), every death charged at the
    current allocation clock: nothing may have been allocated since
    the deaths were counted. *)
val fold_deaths : t -> Collectors.Site_tally.t -> unit

(** [data t ~site_name] snapshots the profile: every site with recorded
    activity, ascending by id. *)
val data : t -> site_name:(int -> string) -> Profile_data.t
