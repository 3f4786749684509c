(** Uniform interface over the two collectors, so the runtime façade and
    the experiment harness can switch technique by configuration. *)

type kind =
  | Semispace_kind
  | Generational_kind

type t =
  | Semispace of Semispace.t
  | Generational of Generational.t

(** The technique behind a collector value. *)
val kind : t -> kind

(** [alloc_fields t ~pretenure ~tag ~len ~mask ~site ~birth] is the
    allocation entry: one zero-filled object with these header fields
    ({!Mem.Header.validate_fields}), collecting first if the active
    collector's policy requires it.  [pretenure] places it directly in
    the tenured generation; the semispace collector ignores it (it has a
    single region anyway).  It builds no {!Mem.Header.t}, boxes nothing
    and resolves no block: the runtime's every allocation goes through
    it.
    @raise Invalid_argument as {!Mem.Header.validate_fields}, before
    anything is collected, granted or counted. *)
val alloc_fields :
  t -> pretenure:bool -> tag:int -> len:int -> mask:int -> site:int ->
  birth:int -> Mem.Addr.t

(** [alloc t hdr ~birth] is {!alloc_fields} [~pretenure:false] on the
    fields of [hdr] — the header-record form kept for tests and the
    safe-tier twin. *)
val alloc : t -> Mem.Header.t -> birth:int -> Mem.Addr.t

(** [alloc_pretenured t hdr ~birth] is {!alloc_fields} [~pretenure:true]
    on the fields of [hdr]. *)
val alloc_pretenured : t -> Mem.Header.t -> birth:int -> Mem.Addr.t

(** Write barrier; a no-op under the semispace collector (which has no
    intergenerational invariant), except that the update is still counted
    so Table 2's pointer-update column is collector-independent. *)
val record_update : t -> obj:Mem.Addr.t -> loc:Mem.Addr.t -> unit

(** [remember t ~obj ~loc] logs an edge without counting an update
    ({!Generational.remember}); a no-op under the semispace collector. *)
val remember : t -> obj:Mem.Addr.t -> loc:Mem.Addr.t -> unit

(** [in_nursery t a]: [a] lies in the generational collector's nursery
    (its block, whether or not below the frontier); [false] under the
    semispace collector, which has none. *)
val in_nursery : t -> Mem.Addr.t -> bool

(** Force a full collection — under the generational collector, a major
    of the configured [major_kind] (copying by default, mark-in-place
    with [Mark_sweep] — see {!Generational.major_kind}). *)
val collect_now : t -> unit

(** The statistics record the collector mutates in place. *)
val stats : t -> Gc_stats.t

(** Live words after the most recent full collection. *)
val live_words : t -> int

(** [flush_site_allocs t consume] hands [consume] the per-site
    [(objects, words)] allocated since the last collection and empties
    the table, as {!Generational.flush_site_allocs}.  No rows without
    site tallies ({!Cycle.site_tallies}). *)
val flush_site_allocs : t -> (Site_tally.t -> unit) -> unit

(** Release all memory held by the collector. *)
val destroy : t -> unit
