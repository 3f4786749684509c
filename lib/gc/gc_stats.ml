(* upper bound on drain domains, the one definition of the limit:
   [Par_drain.max_workers] and the CLI validation read it *)
let max_domains = 16

type t = {
  mutable minor_gcs : int;
  mutable major_gcs : int;
  mutable words_allocated : int;
  mutable words_alloc_records : int;
  mutable words_alloc_arrays : int;
  mutable objects_allocated : int;
  mutable words_copied : int;
  mutable words_promoted : int;
  mutable words_pretenured : int;
  mutable words_region_scanned : int;
  mutable words_region_skipped : int;
  mutable words_los_freed : int;
  mutable words_marked : int;
  mutable words_swept_free : int;
  mutable major_kind : string;
  words_scanned_dom : int array;
  mutable max_live_words : int;
  mutable live_words_after_gc : int;
  mutable mutator_ops : int;
  mutable pointer_updates : int;
  mutable barrier_entries_processed : int;
  mutable frames_decoded : int;
  mutable frames_reused : int;
  mutable slots_decoded : int;
  mutable roots_visited : int;
  mutable depth_sum_at_gc : int;
  mutable depth_max_at_gc : int;
  mutable new_frames_sum : int;
  mutable marker_stubs_installed : int;
  mutable marker_stub_hits : int;
  mutable exception_unwinds : int;
  mutable stack_seconds : float;
  mutable copy_seconds : float;
  mutable barrier_seconds : float;
  mutable profile_seconds : float;
  mutable tenured_free_words : int;
  mutable tenured_free_blocks : int;
  mutable tenured_largest_hole : int;
  mutable los_free_words : int;
  mutable los_free_blocks : int;
  mutable los_largest_hole : int;
}

let create () = {
  minor_gcs = 0;
  major_gcs = 0;
  words_allocated = 0;
  words_alloc_records = 0;
  words_alloc_arrays = 0;
  objects_allocated = 0;
  words_copied = 0;
  words_promoted = 0;
  words_pretenured = 0;
  words_region_scanned = 0;
  words_region_skipped = 0;
  words_los_freed = 0;
  words_marked = 0;
  words_swept_free = 0;
  major_kind = "copying";
  words_scanned_dom = Array.make max_domains 0;
  max_live_words = 0;
  live_words_after_gc = 0;
  mutator_ops = 0;
  pointer_updates = 0;
  barrier_entries_processed = 0;
  frames_decoded = 0;
  frames_reused = 0;
  slots_decoded = 0;
  roots_visited = 0;
  depth_sum_at_gc = 0;
  depth_max_at_gc = 0;
  new_frames_sum = 0;
  marker_stubs_installed = 0;
  marker_stub_hits = 0;
  exception_unwinds = 0;
  stack_seconds = 0.;
  copy_seconds = 0.;
  barrier_seconds = 0.;
  profile_seconds = 0.;
  tenured_free_words = 0;
  tenured_free_blocks = 0;
  tenured_largest_hole = 0;
  los_free_words = 0;
  los_free_blocks = 0;
  los_largest_hole = 0;
}

let gcs t = t.minor_gcs + t.major_gcs

(* summed at report time: parallel drains bump their own slot, so no
   increment is ever lost to a racy read-modify-write on a shared cell *)
let words_scanned t = Array.fold_left ( + ) 0 t.words_scanned_dom

let add_scanned t ~domain words =
  if domain < 0 || domain >= max_domains then invalid_arg "Gc_stats.add_scanned";
  t.words_scanned_dom.(domain) <- t.words_scanned_dom.(domain) + words

let gc_seconds t = t.stack_seconds +. t.copy_seconds +. t.barrier_seconds

let bytes_allocated t = t.words_allocated * Mem.Memory.bytes_per_word
let bytes_copied t = t.words_copied * Mem.Memory.bytes_per_word
let max_live_bytes t = t.max_live_words * Mem.Memory.bytes_per_word

let avg_depth_at_gc t =
  let n = gcs t in
  if n = 0 then 0. else float_of_int t.depth_sum_at_gc /. float_of_int n

let avg_new_frames t =
  let n = gcs t in
  if n = 0 then 0. else float_of_int t.new_frames_sum /. float_of_int n

let add_scan t (r : Rstack.Scan.result) =
  t.frames_decoded <- t.frames_decoded + r.Rstack.Scan.frames_decoded;
  t.frames_reused <- t.frames_reused + r.Rstack.Scan.frames_reused;
  t.slots_decoded <- t.slots_decoded + r.Rstack.Scan.slots_decoded;
  t.roots_visited <- t.roots_visited + r.Rstack.Scan.roots_visited;
  t.depth_sum_at_gc <- t.depth_sum_at_gc + r.Rstack.Scan.depth;
  t.depth_max_at_gc <- max t.depth_max_at_gc r.Rstack.Scan.depth

let pp fmt t =
  Format.fprintf fmt
    "@[<v>gcs: %d minor + %d major@,\
     alloc: %d bytes (%d objects)@,\
     copied: %d bytes (promoted %d words, pretenured %d words)@,\
     max live: %d bytes@,\
     updates: %d (processed %d)@,\
     frames: %d decoded, %d reused@,\
     time: %.4fs stack + %.4fs copy@]"
    t.minor_gcs t.major_gcs (bytes_allocated t) t.objects_allocated
    (bytes_copied t) t.words_promoted t.words_pretenured
    (max_live_bytes t)
    t.pointer_updates t.barrier_entries_processed
    t.frames_decoded t.frames_reused
    t.stack_seconds t.copy_seconds
