type config = {
  target_liveness : float;
  budget_bytes : int;
  initial_bytes : int;
  parallelism : int;
  parallelism_mode : Par_drain.mode;
  chunk_words : int;   (* 0 = the engine's default *)
  eager_evac : bool;   (* hierarchical (eager-child) evacuation *)
}

let default_config ~budget_bytes =
  { target_liveness = 0.10;
    budget_bytes;
    initial_bytes = budget_bytes / 4;
    parallelism = 1;
    parallelism_mode = Par_drain.Virtual;
    chunk_words = 0;
    eager_evac = false }

type t = {
  mem : Mem.Memory.t;
  hooks : Hooks.t;
  cfg : config;
  stats : Gc_stats.t;
  semi_words : int;              (* physical size of one semispace *)
  mutable space : Mem.Space.t;
  mutable soft_limit : int;      (* collect when used exceeds this *)
  mutable live : int;            (* words surviving the last collection *)
  alloc_sites : Site_tally.t option;
      (* per-site (objects, words) allocated since the last collection;
         [Some] only when created under [Cycle.site_tallies] *)
  deaths : Site_tally.t option;
      (* per-site (objects, Σ birth) one collection found dead; [Some]
         iff the runtime is profiling *)
  roots : Rstack.Root.Buf.t;     (* the roots phase's buffer, reused *)
}

let now = Cycle.now

let create mem ~hooks ~stats cfg =
  if cfg.budget_bytes <= 0 then invalid_arg "Semispace.create: empty budget";
  if cfg.parallelism < 1 || cfg.parallelism > Gc_stats.max_domains then
    invalid_arg "Semispace.create: bad parallelism";
  if cfg.chunk_words <> 0 && cfg.chunk_words < 2 * (Mem.Header.header_words ()) then
    invalid_arg "Semispace.create: chunk_words too small";
  let semi_words = max 64 (cfg.budget_bytes / Mem.Memory.bytes_per_word / 2) in
  let initial_words = cfg.initial_bytes / Mem.Memory.bytes_per_word in
  let soft_limit = min semi_words (max 64 initial_words) in
  { mem;
    hooks;
    cfg;
    stats;
    semi_words;
    space = Mem.Space.create mem ~words:soft_limit;
    soft_limit;
    live = 0;
    alloc_sites = Cycle.tally (Cycle.site_tallies hooks);
    deaths = Cycle.tally hooks.Hooks.profiling;
    roots = Rstack.Root.Buf.create () }

let live_words t = t.live

let contains t a = Mem.Space.contains t.space a

let resize t ~need =
  (* S' = S * r'/r, i.e. a soft limit of live/r, clamped to the physical
     semispace and kept comfortably above the live data and any pending
     allocation *)
  let target = float_of_int t.live /. t.cfg.target_liveness in
  let floor_w = t.live + need + max (t.live / 4) 64 in
  t.soft_limit <- min t.semi_words (max floor_w (int_of_float target));
  if t.live + need > t.semi_words then
    raise (Budget.Exhausted "Semispace: live data exceeds memory budget")

let collect t ~need ~traced =
  let t0 = now () in
  let t1 =
    Cycle.roots ~hooks:t.hooks ~stats:t.stats ~traced ~t0 ~roots:t.roots
      Rstack.Scan.Full
  in
  (* size the to-space to the current policy limit, not the whole budget
     share: the physical grant tracks the live set, so huge budgets (the
     calibration runs) do not allocate or zero hundreds of megabytes per
     collection.  Growth decided by the resizing policy lands at the next
     collection. *)
  let seq_words =
    min t.semi_words
      (max 64
         (max
            (Mem.Space.used_words t.space + need)
            t.soft_limit))
  in
  (* parallelism = 1 is the sequential oracle: same engine, same sizing.
     A parallel drain additionally needs to-space headroom for chunk
     tails and fillers. *)
  let to_words =
    if Cycle.parallel ~parallelism:t.cfg.parallelism then
      seq_words
      + Par_drain.space_headroom
          ?chunk_words:(Cycle.chunk_opt t.cfg.chunk_words)
          ~parallelism:t.cfg.parallelism
          ~copy_bound:(Mem.Space.used_words t.space) ()
    else seq_words
  in
  let to_space = Mem.Space.create t.mem ~words:to_words in
  let engine =
    Cycle.engine ~mem:t.mem
      ~from:t.space
      ~to_space ~los:None ~trace_los:false ~promoting:false
      ~eager:t.cfg.eager_evac ~site_tallies:(Cycle.site_tallies t.hooks)
      ~parallelism:t.cfg.parallelism ~mode:t.cfg.parallelism_mode
      ~chunk_words:t.cfg.chunk_words ()
  in
  Cycle.drain engine ~stats:t.stats t.roots;
  let t2 = now () in
  t.stats.Gc_stats.copy_ns <- t.stats.Gc_stats.copy_ns + (t2 - t1);
  let copies = Cycle.survivals engine in
  if traced then begin
    Cycle.trace_copy engine ~with_promoted:false ~dur_us:(Cycle.us (t2 - t1));
    Cycle.emit_survivals copies
  end;
  Cycle.profile_sweep ~mem:t.mem ~deaths:t.deaths ~stats:t.stats ~traced
    ~since:t2 t.space;
  Mem.Space.release t.space t.mem;
  t.space <- to_space;
  t.live <- Cycle.copied engine;
  t.stats.Gc_stats.words_copied <- t.stats.Gc_stats.words_copied + t.live;
  t.stats.Gc_stats.major_gcs <- t.stats.Gc_stats.major_gcs + 1;
  t.stats.Gc_stats.live_words_after_gc <- t.live;
  t.stats.Gc_stats.max_live_words <- max t.stats.Gc_stats.max_live_words t.live;
  resize t ~need;
  t.hooks.Hooks.after_collection ~full:true ~allocs:(Cycle.rows t.alloc_sites)
    ~copies ~deaths:(Cycle.rows t.deaths);
  if traced then
    Obs.Trace.gc_end ~kind:"semi"
      ~pause_us:(Cycle.us (now () - t0))
      ~copied_w:t.live ~promoted_w:0 ~live_w:t.live

(* the rows' life cycle of [Generational.cycle] *)
let collect_for t ~need =
  let traced = Obs.Trace.enabled () in
  if traced then
    Obs.Trace.gc_begin ~kind:"semi" ~nursery_w:0
      ~tenured_w:(Mem.Space.used_words t.space) ~los_w:0;
  Cycle.emit_site_allocs t.alloc_sites;
  match collect t ~need ~traced with
  | () -> Cycle.end_collection ~alloc_sites:t.alloc_sites ~deaths:t.deaths
  | exception e ->
    Cycle.end_collection ~alloc_sites:t.alloc_sites ~deaths:t.deaths;
    raise e

let collect t = collect_for t ~need:0

let alloc t ~tag ~len ~mask ~site ~birth =
  (* reject a bad header before any collection or grant *)
  Mem.Header.validate_fields ~tag ~len ~mask ~site;
  let words = Mem.Header.header_words () + len in
  if Mem.Space.used_words t.space + words > t.soft_limit then
    collect_for t ~need:words;
  let base = Mem.Space.grant t.space words in
  let base =
    if not (Mem.Addr.is_null base) then base
    else begin
      (* the physical grant was too small for this object even though the
         policy allows it: collect into a to-space sized to fit *)
      collect_for t ~need:words;
      let base = Mem.Space.grant t.space words in
      if Mem.Addr.is_null base then
        raise (Budget.Exhausted "Semispace: live data exceeds memory budget");
      base
    end
  in
  (* a collection swaps [t.space]: take the handle of the granting one *)
  Cycle.finish_alloc ~stats:t.stats ~sites:t.alloc_sites
    (Mem.Space.cells t.space) ~tag ~len ~mask ~site ~birth base

let stats t = t.stats

let flush_site_allocs t consume = Cycle.flush_site_allocs t.alloc_sites consume

let destroy t =
  if Obs.Trace.enabled () then
    flush_site_allocs t ignore;
  Mem.Space.release t.space t.mem
