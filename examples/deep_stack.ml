(* Generational stack collection on a deep non-tail recursion (Section 5
   of the paper).

   A recursive walk builds a list one element per stack frame, so the
   whole chain of activation records stays live while garbage churns the
   nursery.  The same program runs twice — without and with stack
   markers — and the frame-decode counters show the technique's effect:
   with markers, almost every frame is reused from the scan cache.

   Run with:  dune exec examples/deep_stack.exe *)

module R = Gsc.Runtime

let depth = 600
let junk_per_level = 30

let run cfg =
  let rt = R.create cfg in
  Fun.protect ~finally:(fun () -> R.destroy rt) @@ fun () ->
  let site = R.register_site rt ~name:"deep.node" in
  let site_junk = R.register_site rt ~name:"deep.junk" in
  let key =
    R.register_frame rt ~name:"deep.level"
      ~slots:[| Rstack.Trace.Ptr; Rstack.Trace.Ptr |]
  in
  (* one call body for every level, built once: [R.call0] passes it the
     level and allocates nothing per call *)
  let rec level_body level =
    R.alloc_record2 rt ~site ~mask:0b10 ~dst:(R.to_slot 0) (R.imm level)
      (R.slot 0);
    for _ = 1 to junk_per_level do
      R.alloc_record2 rt ~site:site_junk ~mask:0 ~dst:(R.to_slot 1) (R.imm 0)
        (R.imm 0)
    done;
    if level = 0 then 0
    else
      R.call0 rt ~key level_body (level - 1)
      + R.field_int rt ~obj:(R.slot 0) ~idx:0
  in
  let total = R.call0 rt ~key level_body depth in
  assert (total = depth * (depth + 1) / 2);
  let s = R.stats rt in
  let clock = Harness.Simclock.of_stats s in
  Printf.printf "%-12s gcs=%-4d frames decoded=%-7d reused=%-7d \
                 stack=%.4fs copy=%.4fs\n"
    (Gsc.Config.name cfg)
    (Collectors.Gc_stats.gcs s)
    s.Collectors.Gc_stats.frames_decoded s.Collectors.Gc_stats.frames_reused
    clock.Harness.Simclock.stack_seconds clock.Harness.Simclock.copy_seconds

let () =
  let budget = 256 * 1024 in
  let small_nursery cfg = { cfg with Gsc.Config.nursery_bytes_max = 8 * 1024 } in
  print_endline "deep non-tail recursion, 600 frames live across collections:";
  run (small_nursery (Gsc.Config.generational ~budget_bytes:budget));
  run (small_nursery (Gsc.Config.with_markers ~budget_bytes:budget))
