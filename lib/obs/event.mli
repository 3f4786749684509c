(** The typed GC trace events.

    One value of {!t} is one JSONL record (see [docs/TRACING.md] for the
    on-disk schema).  The emitting layers build these; {!Trace} stamps
    the envelope fields (sequence number, timestamp, collection ordinal)
    and serialises; {!Metrics} folds them into the in-process registry.

    Conventions shared by all events:

    - [*_w] fields are word counts, [*_us] fields are microseconds;
    - [kind] is ["minor"], ["major"] or ["semi"];
    - a [site] is the allocation-site id from the object header
      (the runtime's [site_name] maps it back to a label). *)

(** Trace-format version, carried as the envelope's leading ["v"] field.
    {!Schema} rejects any other value; [policy.json] carries the same
    number so a policy is always traceable to the format that produced
    it.  History: 1 = PR 2's eight-event schema (no version field);
    2 = adds ["v"], the [site_alloc] and [census] events, a points-to
    edge event (removed in 6) and
    [site_survival.first_objects]; 3 = adds the ["dom"] envelope field
    (id of the domain that emitted the record); 4 = adds the
    [slo_breach] event (the online {!Slo} monitor's verdicts); 5 = adds
    the [policy_update] event (the adaptive control plane's decisions);
    6 = drops the points-to edge event, and the policy's list of
    scan-free sites becomes the one [scan_elision] flag (elision no
    longer rests on observed points-to edges but on the initialising-
    store check, so it covers every pretenured site). *)
val version : int

type t =
  | Gc_begin of {
      kind : string;
      nursery_w : int;   (** nursery occupancy (0 for semispace) *)
      tenured_w : int;   (** tenured occupancy; the single space for
                             semispace *)
      los_w : int;       (** live large-object words *)
    }  (** a collection starts; increments the envelope's [gc] ordinal *)
  | Gc_end of {
      kind : string;
      pause_us : float;  (** whole collection, marker placement included *)
      copied_w : int;
      promoted_w : int;  (** subset of copied: nursery exits *)
      live_w : int;      (** collector's live estimate after the pause *)
    }
  | Phase of {
      name : string;     (** "roots" | "barrier" | "region_scan" | "copy"
                             | "los_sweep" | "profile_sweep" *)
      dur_us : float;
      counters : (string * int) list;  (** phase-specific work counters *)
    }  (** one completed span inside the current collection *)
  | Stack_scan of {
      mode : string;       (** "minor" | "full" *)
      valid_prefix : int;  (** frames served from the scan cache's prefix *)
      depth : int;
      decoded : int;       (** frames re-decoded this scan *)
      reused : int;        (** cache hits: frames replayed without decode *)
      slots : int;
      roots : int;
    }  (** emitted by [Rstack.Scan.run] itself — the only layer that
           knows the cache-valid prefix *)
  | Site_survival of {
      site : int;
      objects : int;
      first_objects : int;  (** subset of [objects] surviving their first
                                collection — the numerator of the paper's
                                [old%] when summed over a run *)
      words : int;
    }  (** per-site survivors of the collection that just drained *)
  | Site_alloc of {
      site : int;
      objects : int;
      words : int;
    }  (** per-site allocation deltas since the previous [site_alloc]
           for the site (flushed at every collection and at collector
           destruction) — the denominator of the offline [old%] *)
  | Census of {
      site : int;
      objects : int;  (** live objects from this site *)
      words : int;    (** live words from this site *)
      ages : (string * int) list;
        (** live objects bucketed by collections survived:
            "0","1","2-3","4-7","8+"; zero buckets omitted *)
    }  (** heap census: one record per live site, sampled every
           [census_period]-th collection (Config-gated) *)
  | Pretenure of {
      site : int;
      words : int;
    }  (** the pretenuring policy routed an allocation to the tenured
           generation (mutator side) *)
  | Marker_place of {
      installed : int;  (** stubs installed by this placement pass *)
      depth : int;      (** stack depth at placement *)
    }
  | Unwind of { target_depth : int }
      (** a simulated exception unwound the stack (mutator side) *)
  | Backend_stats of {
      region : string;       (** "tenured" | "los" *)
      backend : string;      (** "bump" | "free_list" | "size_class" *)
      live_w : int;          (** granted words not yet freed *)
      free_w : int;          (** reusable words sitting in holes *)
      free_blocks : int;     (** hole count *)
      largest_hole : int;    (** widest single hole, words *)
    }  (** allocation-backend fragmentation snapshot, one per managed
           region, sampled at the end of each collection *)
  | Slo_breach of {
      rule : string;         (** "max_pause" | "p99" | "p99_9" | "mmu" *)
      observed_us : float;   (** the violating quantity: the pause (or
                                 percentile) length for pause rules,
                                 busy time inside the trailing window
                                 for the "mmu" rule *)
      limit_us : float;      (** the target expressed in the same unit:
                                 the pause bound, or [(1 - min_mmu) *
                                 window_us] of allowed busy time *)
      window_us : float;     (** the MMU window; 0 for pause rules *)
    }  (** the online {!Slo} monitor found a target violated at a
           [gc_end]; stamped with the breaching collection's ordinal,
           immediately after its [gc_end] record.  Uniformly,
           [observed_us > limit_us]. *)
  | Policy_update of {
      knob : string;      (** "pretenure_site:<id>", the one knob
                              the control plane emits *)
      old_value : int;
      new_value : int;
      window : int;       (** ordinal of the decision window that closed *)
      signals : (string * int) list;
        (** the integer-scaled signal values the rule fired on
            (["old_permille"], the windowed survival rate, and
            ["objects"], the windowed allocations) — enough to audit the
            decision without replaying the whole trace *)
    }  (** the adaptive control plane changed a knob at a collection
           boundary; emitted right after the deciding collection's
           [gc_end] (and any [slo_breach]) records.  Decisions are pure
           functions of the trace's per-site counts, so an offline fold of
           the trace re-derives every [policy_update] bit-for-bit (see
           [docs/ADAPTIVE.md]). *)

(** [name e] is the record's ["ev"] discriminator. *)
val name : t -> string

(** [write b ~seq ~t_us ~gc ~dom e] appends the full JSONL line (newline
    included) to [b].  [gc] is the ordinal of the most recently begun
    collection, 0 before the first; [dom] is the id of the domain the
    record was emitted from (0 for the initial domain). *)
val write :
  Buffer.t -> seq:int -> t_us:float -> gc:int -> dom:int -> t -> unit
