(** Run one workload under one configuration and collect every figure the
    paper's tables report. *)

type t = {
  workload : string;
  config_name : string;
  k : float;                  (** memory multiple of Min; 0 if not set *)
  budget_bytes : int;
  (* simulated times (seconds, deterministic — see {!Simclock}) *)
  total_seconds : float;
  gc_seconds : float;
  client_seconds : float;
  stack_seconds : float;
  copy_seconds : float;       (** includes barrier and region-scan work *)
  (* host wall-clock, for reference only *)
  wall_seconds : float;
  wall_gc_seconds : float;
  (* collections *)
  num_gcs : int;
  minor_gcs : int;
  major_gcs : int;
  (* space *)
  bytes_allocated : int;
  bytes_alloc_records : int;
  bytes_alloc_arrays : int;
  bytes_copied : int;
  bytes_pretenured : int;
  max_live_bytes : int;
  (* stack *)
  avg_depth_at_gc : float;
  max_depth_at_gc : int;
  max_depth_overall : int;
  avg_new_frames : float;
  frames_decoded : int;
  frames_reused : int;
  stub_hits : int;
  exception_unwinds : int;
  (* barrier *)
  pointer_updates : int;
  barrier_entries_processed : int;
  (* pretenured-region scanning *)
  bytes_region_scanned : int;
  bytes_region_skipped : int;
  region_scan_fallbacks : int;  (** young pointers the initialising
                                    store sent to the barrier instead *)
  (* profile, when the configuration gathers one *)
  profile : Heap_profile.Profile_data.t option;
}

(** [run ?trace_path ~workload ~scale ~cfg ~k ()] creates a fresh
    runtime, executes the workload (its internal verification runs too),
    and snapshots the statistics.  The runtime is destroyed before
    returning.  When [trace_path] is given the whole run executes with
    the {!Obs.Trace} tracer writing JSONL to that file. *)
val run :
  ?trace_path:string ->
  workload:Workloads.Spec.t -> scale:int -> cfg:Gsc.Config.t -> k:float ->
  unit -> t

(** [gc_share m] is GC time / total time. *)
val gc_share : t -> float

(** [stack_share m] is stack-scan time / GC time. *)
val stack_share : t -> float
