type collector_kind =
  | Semispace
  | Generational

type exception_strategy =
  | Eager_watermark
  | Deferred_handler_walk

type t = {
  collector : collector_kind;
  budget_bytes : int;
  semispace_target_liveness : float;
  semispace_initial_bytes : int;
  nursery_bytes_max : int;
  tenured_target_liveness : float;
  los_threshold_words : int;
  barrier : Collectors.Generational.barrier_kind;
  tenure_threshold : int;
  parallelism : int;
  parallelism_mode : Collectors.Par_drain.mode;
  chunk_words : int;
  census_period : int;
  tenured_backend : Alloc.Backend.kind;
  los_backend : Alloc.Backend.kind;
  major_kind : Collectors.Generational.major_kind;
  header_layout : Mem.Header.layout;
  eager_evac : bool;
  stack_markers : bool;
  marker_spacing : int;
  exception_strategy : exception_strategy;
  profiling : bool;
  pretenure : Pretenure.t;
  adaptive : bool;
  slo : Obs.Slo.target;
  global_slots : int;
  verify_heap : bool;
}

let default ~budget_bytes =
  { collector = Generational;
    budget_bytes;
    semispace_target_liveness = 0.10;
    semispace_initial_bytes = budget_bytes / 4;
    nursery_bytes_max = 512 * 1024;
    tenured_target_liveness = 0.3;
    los_threshold_words = 512;
    barrier = Collectors.Generational.Barrier_ssb;
    tenure_threshold = 1;
    parallelism = 1;
    parallelism_mode = Collectors.Par_drain.Virtual;
    chunk_words = 0;
    census_period = 0;
    tenured_backend = Alloc.Backend.Bump;
    los_backend = Alloc.Backend.Free_list;
    major_kind = Collectors.Generational.Copying;
    header_layout = Mem.Header.Classic;
    eager_evac = false;
    stack_markers = false;
    marker_spacing = 25;
    exception_strategy = Eager_watermark;
    profiling = false;
    pretenure = Pretenure.none;
    adaptive = false;
    slo = Obs.Slo.no_target;
    global_slots = 64;
    verify_heap = false }

let semispace ~budget_bytes = { (default ~budget_bytes) with collector = Semispace }

let generational ~budget_bytes = default ~budget_bytes

let with_markers ~budget_bytes = { (default ~budget_bytes) with stack_markers = true }

let with_pretenuring ~budget_bytes policy =
  { (default ~budget_bytes) with stack_markers = true; pretenure = policy }

let with_policy_file ~budget_bytes path =
  Result.map
    (fun p -> with_pretenuring ~budget_bytes (Pretenure.of_policy p))
    (Policy_file.load path)

let generational_config t =
  { Collectors.Generational.nursery_bytes_max = t.nursery_bytes_max;
    tenured_target_liveness = t.tenured_target_liveness;
    budget_bytes = t.budget_bytes;
    los_threshold_words = t.los_threshold_words;
    barrier = t.barrier;
    tenure_threshold = t.tenure_threshold;
    parallelism = t.parallelism;
    parallelism_mode = t.parallelism_mode;
    chunk_words = t.chunk_words;
    eager_evac = t.eager_evac;
    census_period = t.census_period;
    tenured_backend = t.tenured_backend;
    los_backend = t.los_backend;
    major_kind = t.major_kind;
    adaptive = t.adaptive;
    pretenured_init = Pretenure.pretenured_sites t.pretenure }

let name t =
  match t.collector with
  | Semispace -> "semi"
  | Generational ->
    if not t.stack_markers then "gen"
    else if Pretenure.is_empty t.pretenure then "gen+marker"
    else "gen+marker+pretenure"
