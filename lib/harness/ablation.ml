let run_custom ~workload ~scale ~cfg ~k = Measure.run ~workload ~scale ~cfg ~k ()

(* Elision trades the region scan for the initialising-store check:
   lexgen is the program whose pretenured records take young pointers,
   so its fallbacks show what the skipped scan costs instead *)
let scan_elision ~factor =
  let grid =
    Support.Textgrid.create
      ~columns:[ Support.Textgrid.Left; Left; Right; Right; Right; Right; Right ]
  in
  Support.Textgrid.add_row grid
    [ "Program"; "Config"; "GC (s)"; "Region scanned"; "Region skipped";
      "Fallbacks"; "Copied" ];
  Support.Textgrid.add_rule grid;
  List.iter
    (fun name ->
      let w = Workloads.Registry.find name in
      let sc = Runs.scale ~factor w in
      let row config technique =
        let m = Runs.measure ~workload:w ~scale:sc ~technique ~k:4.0 in
        Support.Textgrid.add_row grid
          [ name;
            config;
            Printf.sprintf "%.4f" m.Measure.gc_seconds;
            Support.Units.bytes m.Measure.bytes_region_scanned;
            Support.Units.bytes m.Measure.bytes_region_skipped;
            string_of_int m.Measure.region_scan_fallbacks;
            Support.Units.bytes m.Measure.bytes_copied ]
      in
      row "pretenure" Runs.Pretenure;
      row "pretenure+scan-elision" Runs.Pretenure_elide)
    [ "nqueen"; "lexgen" ];
  "Ablation (Section 7.2): scan elision on Nqueen and Lexgen at k=4\n"
  ^ Support.Textgrid.render grid

let marker_spacing ~factor =
  let w = Workloads.Registry.find "knuth-bendix" in
  let sc = Runs.scale ~factor w in
  let grid =
    Support.Textgrid.create
      ~columns:[ Support.Textgrid.Right; Right; Right; Right; Right ]
  in
  Support.Textgrid.add_row grid
    [ "n"; "GC (s)"; "frames decoded"; "frames reused"; "stub hits" ];
  Support.Textgrid.add_rule grid;
  List.iter
    (fun n ->
      let budget = Calibrate.budget_for ~workload:w ~scale:sc ~k:4.0 in
      let cfg =
        Runs.with_nursery_cap
          { (Gsc.Config.with_markers ~budget_bytes:budget) with
            Gsc.Config.marker_spacing = n }
      in
      let m = run_custom ~workload:w ~scale:sc ~cfg ~k:4.0 in
      Support.Textgrid.add_row grid
        [ string_of_int n;
          Printf.sprintf "%.4f" m.Measure.gc_seconds;
          string_of_int m.Measure.frames_decoded;
          string_of_int m.Measure.frames_reused;
          string_of_int m.Measure.stub_hits ])
    [ 1; 5; 25; 100 ];
  "Ablation: stack-marker spacing n on Knuth-Bendix at k=4 (paper: n=25)\n"
  ^ Support.Textgrid.render grid

let pretenure_cutoff ~factor =
  let w = Workloads.Registry.find "nqueen" in
  let sc = Runs.scale ~factor w in
  let data = Runs.profile_of ~workload:w ~scale:sc in
  let grid =
    Support.Textgrid.create
      ~columns:[ Support.Textgrid.Right; Right; Right; Right ]
  in
  Support.Textgrid.add_row grid
    [ "cutoff"; "sites"; "GC (s)"; "Copied" ];
  Support.Textgrid.add_rule grid;
  List.iter
    (fun cutoff ->
      let policy =
        Gsc.Pretenure.of_profile data ~cutoff ~min_objects:Runs.min_objects
          ~scan_elision:false
      in
      let budget = Calibrate.budget_for ~workload:w ~scale:sc ~k:4.0 in
      let cfg =
        Runs.with_nursery_cap
          (Gsc.Config.with_pretenuring ~budget_bytes:budget policy)
      in
      let m = run_custom ~workload:w ~scale:sc ~cfg ~k:4.0 in
      Support.Textgrid.add_row grid
        [ Printf.sprintf "%.0f%%" (100. *. cutoff);
          string_of_int (List.length (Gsc.Pretenure.pretenured_sites policy));
          Printf.sprintf "%.4f" m.Measure.gc_seconds;
          Support.Units.bytes m.Measure.bytes_copied ])
    [ 0.05; 0.5; 0.8; 0.95 ];
  "Ablation: pretenuring old% cutoff on Nqueen at k=4 (paper: 80%, \
   claimed insensitive; 5% deliberately over-tenures, the failure mode \
   Section 7.2 warns about)\n"
  ^ Support.Textgrid.render grid

let barrier_kind ~factor =
  let w = Workloads.Registry.find "peg" in
  let sc = Runs.scale ~factor w in
  let grid =
    Support.Textgrid.create
      ~columns:[ Support.Textgrid.Left; Right; Right; Right ]
  in
  Support.Textgrid.add_row grid
    [ "Barrier"; "GC (s)"; "updates"; "entries processed" ];
  Support.Textgrid.add_rule grid;
  List.iter
    (fun (name, kind) ->
      let budget = Calibrate.budget_for ~workload:w ~scale:sc ~k:4.0 in
      let cfg =
        Runs.with_nursery_cap
          { (Gsc.Config.generational ~budget_bytes:budget) with
            Gsc.Config.barrier = kind }
      in
      let m = run_custom ~workload:w ~scale:sc ~cfg ~k:4.0 in
      Support.Textgrid.add_row grid
        [ name;
          Printf.sprintf "%.4f" m.Measure.gc_seconds;
          string_of_int m.Measure.pointer_updates;
          string_of_int m.Measure.barrier_entries_processed ])
    [ ("sequential store buffer", Collectors.Generational.Barrier_ssb);
      ("dedup remembered set", Collectors.Generational.Barrier_remset);
      ("card marking", Collectors.Generational.Barrier_cards) ];
  "Ablation: write barrier on Peg at k=4 (the paper blames the SSB and \
   suggests card marking)\n"
  ^ Support.Textgrid.render grid

let exception_strategy ~factor =
  let w = Workloads.Registry.find "color" in
  let sc = Runs.scale ~factor w in
  let grid =
    Support.Textgrid.create
      ~columns:[ Support.Textgrid.Left; Right; Right; Right; Right ]
  in
  Support.Textgrid.add_row grid
    [ "Strategy"; "GC (s)"; "frames decoded"; "frames reused"; "unwinds" ];
  Support.Textgrid.add_rule grid;
  List.iter
    (fun (name, strategy) ->
      let budget = Calibrate.budget_for ~workload:w ~scale:sc ~k:4.0 in
      let cfg =
        Runs.with_nursery_cap
          { (Gsc.Config.with_markers ~budget_bytes:budget) with
            Gsc.Config.exception_strategy = strategy }
      in
      let m = run_custom ~workload:w ~scale:sc ~cfg ~k:4.0 in
      Support.Textgrid.add_row grid
        [ name;
          Printf.sprintf "%.4f" m.Measure.gc_seconds;
          string_of_int m.Measure.frames_decoded;
          string_of_int m.Measure.frames_reused;
          string_of_int m.Measure.exception_unwinds ])
    [ ("eager watermark", Gsc.Config.Eager_watermark);
      ("deferred handler walk", Gsc.Config.Deferred_handler_walk) ];
  "Ablation: exception strategy on Color at k=4 (Section 5 presents both;    results must agree)\n"
  ^ Support.Textgrid.render grid

let tenure_threshold ~factor =
  let w = Workloads.Registry.find "knuth-bendix" in
  let sc = Runs.scale ~factor w in
  let budget = Calibrate.budget_for ~workload:w ~scale:sc ~k:4.0 in
  let policy = Runs.policy_of ~workload:w ~scale:sc ~scan_elision:false in
  let grid =
    Support.Textgrid.create
      ~columns:[ Support.Textgrid.Right; Right; Right; Right; Right ]
  in
  Support.Textgrid.add_row grid
    [ "threshold"; "copied (base)"; "copied (pretenure)"; "saved"; "GC dec" ];
  Support.Textgrid.add_rule grid;
  List.iter
    (fun threshold ->
      let base_cfg =
        Runs.with_nursery_cap
          { (Gsc.Config.with_markers ~budget_bytes:budget) with
            Gsc.Config.tenure_threshold = threshold }
      in
      let pre_cfg =
        Runs.with_nursery_cap
          { (Gsc.Config.with_pretenuring ~budget_bytes:budget policy) with
            Gsc.Config.tenure_threshold = threshold }
      in
      let base = run_custom ~workload:w ~scale:sc ~cfg:base_cfg ~k:4.0 in
      let pre = run_custom ~workload:w ~scale:sc ~cfg:pre_cfg ~k:4.0 in
      let saved = base.Measure.bytes_copied - pre.Measure.bytes_copied in
      let gc_dec =
        if base.Measure.gc_seconds = 0. then 0.
        else
          (base.Measure.gc_seconds -. pre.Measure.gc_seconds)
          /. base.Measure.gc_seconds
      in
      Support.Textgrid.add_row grid
        [ string_of_int threshold;
          Support.Units.bytes base.Measure.bytes_copied;
          Support.Units.bytes pre.Measure.bytes_copied;
          Support.Units.bytes saved;
          Support.Units.percent gc_dec ])
    [ 1; 2; 3 ];
  "Ablation: tenure threshold on Knuth-Bendix at k=4 (Section 7.2 \
   predicts pretenuring helps more under aging nurseries)\n"
  ^ Support.Textgrid.render grid

let semispace_liveness ~factor =
  let w = Workloads.Registry.find "knuth-bendix" in
  let sc = Runs.scale ~factor w in
  let budget = Calibrate.budget_for ~workload:w ~scale:sc ~k:4.0 in
  let grid =
    Support.Textgrid.create ~columns:[ Support.Textgrid.Right; Right; Right; Right ]
  in
  Support.Textgrid.add_row grid [ "target r"; "GCs"; "copied"; "GC (s)" ];
  Support.Textgrid.add_rule grid;
  List.iter
    (fun r ->
      let cfg =
        { (Gsc.Config.semispace ~budget_bytes:budget) with
          Gsc.Config.semispace_target_liveness = r }
      in
      let m = run_custom ~workload:w ~scale:sc ~cfg ~k:4.0 in
      Support.Textgrid.add_row grid
        [ Printf.sprintf "%.2f" r;
          string_of_int m.Measure.num_gcs;
          Support.Units.bytes m.Measure.bytes_copied;
          Printf.sprintf "%.4f" m.Measure.gc_seconds ])
    [ 0.05; 0.10; 0.30; 0.50 ];
  "Ablation: semispace resizing target r on Knuth-Bendix at k=4 (paper: \
   r=0.10; a higher target collects more often in less space)\n"
  ^ Support.Textgrid.render grid

let render ~factor =
  String.concat "\n"
    [ scan_elision ~factor;
      marker_spacing ~factor;
      pretenure_cutoff ~factor;
      barrier_kind ~factor;
      exception_strategy ~factor;
      tenure_threshold ~factor;
      semispace_liveness ~factor ]
