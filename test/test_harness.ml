(* Harness tests: the simulated clock, calibration, memoised runs, and a
   smoke render of every table at a tiny scale factor.  The shape
   assertions here are the executable form of EXPERIMENTS.md: Table 5's
   marker improvements and Table 6's copy reduction must hold on every
   build. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let factor = 0.4 (* small but large enough that the shapes hold *)

let find = Workloads.Registry.find

(* --- Simclock --- *)

let simclock_zero () =
  let s = Collectors.Gc_stats.create () in
  let c = Harness.Simclock.of_stats s in
  check_bool "all zero" true
    (Harness.Simclock.total_seconds c = 0. && Harness.Simclock.gc_seconds c = 0.)

let simclock_monotone () =
  let s = Collectors.Gc_stats.create () in
  s.Collectors.Gc_stats.words_copied <- 1000;
  let c1 = Harness.Simclock.gc_seconds (Harness.Simclock.of_stats s) in
  s.Collectors.Gc_stats.words_copied <- 2000;
  let c2 = Harness.Simclock.gc_seconds (Harness.Simclock.of_stats s) in
  check_bool "copying costs time" true (c2 > c1 && c1 > 0.);
  s.Collectors.Gc_stats.frames_decoded <- 100;
  let c3 =
    (Harness.Simclock.of_stats s).Harness.Simclock.stack_seconds
  in
  check_bool "decoding is stack time" true (c3 > 0.)

let simclock_deterministic () =
  (* the same workload measured twice gives bit-identical simulated
     times (the whole point of the simulated clock) *)
  let w = find "life" in
  let cfg =
    Harness.Runs.with_nursery_cap
      (Gsc.Config.generational ~budget_bytes:(64 * 1024))
  in
  let m1 = Harness.Measure.run ~workload:w ~scale:20 ~cfg ~k:0. () in
  let m2 = Harness.Measure.run ~workload:w ~scale:20 ~cfg ~k:0. () in
  check_bool "identical gc seconds" true
    (m1.Harness.Measure.gc_seconds = m2.Harness.Measure.gc_seconds);
  check_bool "identical totals" true
    (m1.Harness.Measure.total_seconds = m2.Harness.Measure.total_seconds);
  check_int "identical gcs" m1.Harness.Measure.num_gcs m2.Harness.Measure.num_gcs

(* --- Calibrate --- *)

let calibration_sane () =
  let w = find "checksum" in
  let live = Harness.Calibrate.max_live_bytes ~workload:w ~scale:3 in
  (* checksum holds a 16 KB buffer; max live must see it *)
  check_bool "sees the buffer" true (live >= 16 * 1024);
  check_bool "not absurd" true (live < 64 * 1024);
  let b15 = Harness.Calibrate.budget_for ~workload:w ~scale:3 ~k:1.5 in
  let b4 = Harness.Calibrate.budget_for ~workload:w ~scale:3 ~k:4.0 in
  check_bool "budgets ordered" true (b15 < b4);
  check_int "min is 2x live" (2 * live)
    (Harness.Calibrate.min_bytes ~workload:w ~scale:3)

let memoised_runs () =
  Harness.Runs.reset ();
  let w = find "life" in
  let m1 = Harness.Runs.measure ~workload:w ~scale:10 ~technique:Harness.Runs.Gen ~k:4.0 in
  let m2 = Harness.Runs.measure ~workload:w ~scale:10 ~technique:Harness.Runs.Gen ~k:4.0 in
  check_bool "same physical result" true (m1 == m2)

(* --- the paper's headline shapes, as assertions --- *)

let markers_win_on_deep_stacks () =
  let check_workload name =
    let w = find name in
    let sc = Harness.Runs.scale ~factor w in
    let base = Harness.Runs.measure ~workload:w ~scale:sc ~technique:Harness.Runs.Gen ~k:4.0 in
    let mark = Harness.Runs.measure ~workload:w ~scale:sc ~technique:Harness.Runs.Markers ~k:4.0 in
    check_bool (name ^ ": stack dominates baseline GC") true
      (Harness.Measure.stack_share base > 0.5);
    check_bool (name ^ ": markers reduce GC time") true
      (mark.Harness.Measure.gc_seconds < 0.8 *. base.Harness.Measure.gc_seconds);
    check_bool (name ^ ": frames reused") true
      (mark.Harness.Measure.frames_reused > mark.Harness.Measure.frames_decoded)
  in
  check_workload "knuth-bendix";
  check_workload "color"

let markers_harmless_elsewhere () =
  let w = find "life" in
  let sc = Harness.Runs.scale ~factor w in
  let base = Harness.Runs.measure ~workload:w ~scale:sc ~technique:Harness.Runs.Gen ~k:4.0 in
  let mark = Harness.Runs.measure ~workload:w ~scale:sc ~technique:Harness.Runs.Markers ~k:4.0 in
  (* shallow stacks: identical collector work *)
  check_int "same gcs" base.Harness.Measure.num_gcs mark.Harness.Measure.num_gcs;
  check_int "same copied" base.Harness.Measure.bytes_copied
    mark.Harness.Measure.bytes_copied

let pretenuring_reduces_copying () =
  List.iter
    (fun name ->
      let w = find name in
      (* nqueen's solution set shrinks combinatorially with n; keep it
         near full scale so its sites clear the noise guard *)
      let f = if name = "nqueen" then 0.9 else factor in
      let sc = Harness.Runs.scale ~factor:f w in
      let base =
        Harness.Runs.measure ~workload:w ~scale:sc ~technique:Harness.Runs.Markers ~k:4.0
      in
      let pre =
        Harness.Runs.measure ~workload:w ~scale:sc ~technique:Harness.Runs.Pretenure
          ~k:4.0
      in
      check_bool (name ^ ": pretenured something") true
        (pre.Harness.Measure.bytes_pretenured > 0);
      check_bool (name ^ ": copied bytes reduced") true
        (pre.Harness.Measure.bytes_copied < base.Harness.Measure.bytes_copied))
    Harness.Table6.target_names

let semispace_gc_scales_with_k () =
  let w = find "knuth-bendix" in
  let sc = Harness.Runs.scale ~factor w in
  let lo = Harness.Runs.measure ~workload:w ~scale:sc ~technique:Harness.Runs.Semi ~k:1.5 in
  let hi = Harness.Runs.measure ~workload:w ~scale:sc ~technique:Harness.Runs.Semi ~k:4.0 in
  check_bool "more memory, fewer gcs" true
    (hi.Harness.Measure.num_gcs < lo.Harness.Measure.num_gcs);
  check_bool "more memory, less gc time" true
    (hi.Harness.Measure.gc_seconds < lo.Harness.Measure.gc_seconds)

let fft_loves_generational () =
  let w = find "fft" in
  let sc = Harness.Runs.scale ~factor:1.0 w in
  let semi = Harness.Runs.measure ~workload:w ~scale:sc ~technique:Harness.Runs.Semi ~k:4.0 in
  let gen = Harness.Runs.measure ~workload:w ~scale:sc ~technique:Harness.Runs.Gen ~k:4.0 in
  (* the large arrays sit in the mark-sweep space generationally, but are
     copied over and over by the semispace collector *)
  check_bool "semispace copies far more" true
    (semi.Harness.Measure.bytes_copied > 10 * gen.Harness.Measure.bytes_copied)

(* nqueen's pretenured records never take a young pointer; lexgen's
   do, so elision sends those through the barrier instead of scanning *)
let scan_elision_removes_region_scans () =
  List.iter
    (fun name ->
      let w = find name in
      let sc = Harness.Runs.scale ~factor:0.9 w in
      let pre = Harness.Runs.measure ~workload:w ~scale:sc ~technique:Harness.Runs.Pretenure ~k:4.0 in
      let eli =
        Harness.Runs.measure ~workload:w ~scale:sc ~technique:Harness.Runs.Pretenure_elide
          ~k:4.0
      in
      let check_bool what = check_bool (name ^ ": " ^ what)
      and check_int what = check_int (name ^ ": " ^ what) in
      check_bool "baseline scans regions" true (pre.Harness.Measure.bytes_region_scanned > 0);
      check_int "elision scans nothing" 0 eli.Harness.Measure.bytes_region_scanned;
      check_bool "elision skipped the volume" true
        (eli.Harness.Measure.bytes_region_skipped >= pre.Harness.Measure.bytes_region_scanned);
      check_int "no fallback without elision" 0 pre.Harness.Measure.region_scan_fallbacks;
      check_bool "fallbacks where young pointers are initialised" (name = "lexgen")
        (eli.Harness.Measure.region_scan_fallbacks > 0);
      check_int "the same copying" pre.Harness.Measure.bytes_copied
        eli.Harness.Measure.bytes_copied)
    [ "nqueen"; "lexgen" ]

(* --- full renders --- *)

let all_items_render () =
  List.iter
    (fun (item : Harness.Suite.item) ->
      let out = item.Harness.Suite.render ~factor:0.25 in
      check_bool (item.Harness.Suite.id ^ " renders") true
        (String.length out > 100))
    Harness.Suite.items

let () =
  Alcotest.run "harness"
    [ ( "simclock",
        [ Alcotest.test_case "zero" `Quick simclock_zero;
          Alcotest.test_case "monotone" `Quick simclock_monotone;
          Alcotest.test_case "deterministic" `Quick simclock_deterministic ] );
      ( "calibrate",
        [ Alcotest.test_case "sane" `Quick calibration_sane;
          Alcotest.test_case "memoised" `Quick memoised_runs ] );
      ( "shapes",
        [ Alcotest.test_case "markers win on deep stacks" `Slow
            markers_win_on_deep_stacks;
          Alcotest.test_case "markers harmless elsewhere" `Slow
            markers_harmless_elsewhere;
          Alcotest.test_case "pretenuring reduces copying" `Slow
            pretenuring_reduces_copying;
          Alcotest.test_case "semispace scales with k" `Slow
            semispace_gc_scales_with_k;
          Alcotest.test_case "fft loves generational" `Slow
            fft_loves_generational;
          Alcotest.test_case "scan elision" `Slow
            scan_elision_removes_region_scans ] );
      ("render", [ Alcotest.test_case "all items" `Slow all_items_render ]) ]
