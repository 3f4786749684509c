(** Parallel Cheney drain: per-domain copy buffers with work-stealing
    scan, after Cheng & Blelloch's parallel copying collector
    (PLDI 2001).  One packet engine, run under one of two schedulers.

    Work arrives as packets — root batches ({!Rstack.Root.Batch}
    arrays), store-buffer locations, remembered/pretenured objects,
    grey large objects and card indices — staged by the collector with
    the [add_*] functions before {!run}.  Each of [parallelism] workers
    owns a deque of packets and a private to-space chunk carved from
    the shared space with {!Mem.Space.alloc_chunk_atomic}; copies bump
    the private chunk, so workers never contend on the shared
    allocation pointer; the unused tail of a retired chunk is padded
    with a {!Mem.Header.filler_site} filler so the to-space stays
    linearly walkable.  A copy is made optimistically, one word at a
    time outside any lock, then claimed
    by a check-then-install of the forwarding header; a worker that
    loses the claim rolls its copy back.  A worker drains its local
    grey region depth-first, then its own deque, then steals from the
    top of a seeded-random victim's deque.  Per-site survival tallies
    are kept per worker and merged by {!site_survivals}.

    [mode = Virtual] (the default) drives the workers in *virtual time*
    (this simulator never reports host wall-clock for simulated work —
    see [lib/harness/simclock.ml]): a discrete-event scheduler always
    runs the lowest-clock runnable worker for one turn and charges
    fixed per-operation nanosecond costs; {!makespan_ns} — the maximum
    worker clock — is the drain's reported pause contribution.  Turns
    are atomic, so the claim cannot lose a race at runtime; the claim
    and the {!Deque} owner discipline are still asserted under
    {!Deque.checks}, and schedule diversity is explored through [seed].

    [mode = Real] runs the same engine on true OCaml 5 domains from the
    persistent {!Domain_pool}: concurrent {!Cl_deque}s, a striped-mutex
    forwarding claim, per-worker steal PRNGs, and per-worker wall-clock
    spans ({!makespan_ns} then reports real nanoseconds).  The Virtual
    scheduler stays the determinism oracle for it.

    [parallelism = 1] runs the identical machinery on one worker and is
    pinned by the equivalence tests to match the sequential {!Cheney}
    drain — same heap contents, same counters, same per-site survival —
    which keeps the sequential engine the oracle. *)

type t

(** How the [parallelism] workers execute: [Virtual] drives them from a
    deterministic discrete-event scheduler on the calling domain (the
    default, and the measurement-doctrine engine); [Real] runs one true
    domain per worker for wall-clock parallelism. *)
type mode = Virtual | Real

(** Mirrors {!Cheney.create} minus aging/remember (the parallel drain
    only runs under immediate promotion; collectors fall back to the
    sequential engine otherwise): the drain evacuates the named [from]
    space, whose block id and cell array it keeps.  [eager] (default false) enables
    hierarchical evacuation: after each winning copy, the worker pulls
    the copy's not-yet-forwarded children depth-first into its own
    chunk (same depth/word bounds as the Cheney engine; placement only,
    so statistics are unchanged).  [card_scan visit card] must rewrite
    every pointer location of [card] through [visit]; required only when
    card packets are staged.  [chunk_words] sizes the private copy
    chunks, [batch] the location/object/card packets, and [seed] the
    steal-victim rotation.
    @raise Invalid_argument if [parallelism] is outside [1, 16]. *)
val create :
  mem:Mem.Memory.t ->
  from:Mem.Space.t ->
  to_space:Mem.Space.t ->
  los:Los.t option ->
  trace_los:bool ->
  promoting:bool ->
  ?eager:bool ->
  site_tallies:bool ->
  ?card_scan:((Mem.Addr.t -> unit) -> int -> unit) ->
  parallelism:int ->
  ?mode:mode ->
  ?chunk_words:int ->
  ?batch:int ->
  ?seed:int ->
  unit ->
  t

(** [in_from t a]: [a] lies in the from-space (a block-id compare;
    false for {!Mem.Addr.null}). *)
val in_from : t -> Mem.Addr.t -> bool

(** {2 Staging}

    All staging must happen before {!run}; each raises
    [Invalid_argument] afterwards. *)

(** [add_roots t cells index] stages one root packet: root [k] is the
    cell [cells.(k).(index.(k))].  The arrays are consumed as a packet;
    {!Rstack.Root.Batch} emits arrays of the right grain. *)
val add_roots : t -> int array array -> int array -> unit

(** [add_loc t loc] stages a heap location to rewrite (store-buffer
    entries, card-overflow locations). *)
val add_loc : t -> Mem.Addr.t -> unit

(** [add_obj t base] stages an object whose fields must be rewritten
    without entering the drain's scan accounting (remembered-set
    objects, pretenured-region objects) — the parallel counterpart of
    {!Cheney.visit_object_fields}. *)
val add_obj : t -> Mem.Addr.t -> unit

(** [add_card t card] stages a marked card index for [card_scan]. *)
val add_card : t -> int -> unit

(** [run t] executes the drain to a global fixpoint (all deques empty,
    all local grey regions scanned, every worker idle) and pads the
    final chunks.  Must be called exactly once.
    @raise Budget.Exhausted when a [promoting] drain overflows the
    to-space (the live data outgrew the budget).
    @raise Failure on any other to-space overflow (a collector sizing
    bug). *)
val run : t -> unit

(** {2 Results} *)

val words_copied : t -> int

(** Equals {!words_copied}: the parallel drain never ages, so every copy
    promotes, matching the sequential engine's accounting. *)
val words_promoted : t -> int

(** Words walked by the drain proper (chunk scans, stolen ranges, grey
    large objects) — same contract as {!Cheney.words_scanned}. *)
val words_scanned : t -> int

(** Total successful steals across workers. *)
val steals : t -> int

(** Per-worker drain-scan tallies, indexed by worker id (feeds the
    per-domain {!Gc_stats} array). *)
val per_worker_scanned : t -> int array

(** The makespan of the drain: the maximum worker clock, in
    nanoseconds — virtual time under [Virtual], wall time per worker
    under [Real]. *)
val makespan_ns : t -> int

type worker_report = {
  w_id : int;
  w_copied : int;
  w_scanned : int;
  w_packets : int;
  w_steals : int;
  w_cost_ns : int;  (** the worker's final clock (virtual or wall ns) *)
}

(** One report per worker, indexed by worker id (the collectors' [copy.dN]
    trace spans). *)
val report : t -> worker_report array

(** The workers' per-site survival tallies merged into a fresh table;
    populated only when the engine was created with [site_tallies]
    (same gating and columns as {!Cheney.site_survivals}). *)
val site_survivals : t -> Site_tally.t

(** [space_headroom ~parallelism ~copy_bound ()] is the extra to-space a
    parallel drain may consume beyond the live data: one partly-used
    chunk per worker plus filler tails, whose cumulative size is bounded
    by the copied words ([copy_bound] = an upper bound on the words this
    collection can copy).  Collectors add it to their sequential
    to-space sizing.  [chunk_words] defaults to the engine's default
    chunk size; pass the configured size when overriding it. *)
val space_headroom :
  ?chunk_words:int -> parallelism:int -> copy_bound:int -> unit -> int
