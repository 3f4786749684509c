type t = {
  workload : string;
  config_name : string;
  k : float;
  budget_bytes : int;
  total_seconds : float;
  gc_seconds : float;
  client_seconds : float;
  stack_seconds : float;
  copy_seconds : float;
  wall_seconds : float;
  wall_gc_seconds : float;
  num_gcs : int;
  minor_gcs : int;
  major_gcs : int;
  bytes_allocated : int;
  bytes_alloc_records : int;
  bytes_alloc_arrays : int;
  bytes_copied : int;
  bytes_pretenured : int;
  max_live_bytes : int;
  avg_depth_at_gc : float;
  max_depth_at_gc : int;
  max_depth_overall : int;
  avg_new_frames : float;
  frames_decoded : int;
  frames_reused : int;
  stub_hits : int;
  exception_unwinds : int;
  pointer_updates : int;
  barrier_entries_processed : int;
  bytes_region_scanned : int;
  bytes_region_skipped : int;
  region_scan_fallbacks : int;
  profile : Heap_profile.Profile_data.t option;
}

let run ?trace_path ~workload ~scale ~cfg ~k () =
  let with_trace f =
    match trace_path with
    | None -> f ()
    | Some path -> Obs.Trace.with_file path f
  in
  with_trace @@ fun () ->
  let rt = Gsc.Runtime.create cfg in
  Fun.protect ~finally:(fun () -> Gsc.Runtime.destroy rt) @@ fun () ->
  let t0 = Unix.gettimeofday () in
  workload.Workloads.Spec.run rt ~scale;
  let wall_seconds = Unix.gettimeofday () -. t0 in
  Gsc.Runtime.observe_exit_deaths rt;
  let s = Gsc.Runtime.stats rt in
  let clock = Simclock.of_stats s in
  let wpb = Mem.Memory.bytes_per_word in
  { workload = workload.Workloads.Spec.name;
    config_name = Gsc.Config.name cfg;
    k;
    budget_bytes = cfg.Gsc.Config.budget_bytes;
    total_seconds = Simclock.total_seconds clock;
    gc_seconds = Simclock.gc_seconds clock;
    client_seconds = clock.Simclock.client_seconds;
    stack_seconds = clock.Simclock.stack_seconds;
    copy_seconds = clock.Simclock.copy_seconds;
    wall_seconds;
    wall_gc_seconds = Collectors.Gc_stats.gc_seconds s;
    num_gcs = Collectors.Gc_stats.gcs s;
    minor_gcs = s.Collectors.Gc_stats.minor_gcs;
    major_gcs = s.Collectors.Gc_stats.major_gcs;
    bytes_allocated = Collectors.Gc_stats.bytes_allocated s;
    bytes_alloc_records = s.Collectors.Gc_stats.words_alloc_records * wpb;
    bytes_alloc_arrays = s.Collectors.Gc_stats.words_alloc_arrays * wpb;
    bytes_copied = Collectors.Gc_stats.bytes_copied s;
    bytes_pretenured = s.Collectors.Gc_stats.words_pretenured * wpb;
    max_live_bytes = Collectors.Gc_stats.max_live_bytes s;
    avg_depth_at_gc = Collectors.Gc_stats.avg_depth_at_gc s;
    max_depth_at_gc = s.Collectors.Gc_stats.depth_max_at_gc;
    max_depth_overall = Gsc.Runtime.max_stack_depth rt;
    avg_new_frames = Collectors.Gc_stats.avg_new_frames s;
    frames_decoded = s.Collectors.Gc_stats.frames_decoded;
    frames_reused = s.Collectors.Gc_stats.frames_reused;
    stub_hits = Gsc.Runtime.marker_stub_hits rt;
    exception_unwinds = s.Collectors.Gc_stats.exception_unwinds;
    pointer_updates = s.Collectors.Gc_stats.pointer_updates;
    barrier_entries_processed =
      s.Collectors.Gc_stats.barrier_entries_processed;
    bytes_region_scanned = s.Collectors.Gc_stats.words_region_scanned * wpb;
    bytes_region_skipped = s.Collectors.Gc_stats.words_region_skipped * wpb;
    region_scan_fallbacks = s.Collectors.Gc_stats.region_scan_fallbacks;
    profile = Gsc.Runtime.profile rt }

let gc_share m =
  if m.total_seconds = 0. then 0. else m.gc_seconds /. m.total_seconds

let stack_share m =
  if m.gc_seconds = 0. then 0. else m.stack_seconds /. m.gc_seconds
