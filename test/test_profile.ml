(* Tests for the heap profiler, the Figure 2 report,
   the pretenuring policy and the Section 7.2 site-flow analysis. *)

module R = Gsc.Runtime
module PD = Heap_profile.Profile_data

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* run a little program with two sites: "keeper" objects accumulate in a
   global list, "churn" objects die at once *)
let generational_cfg =
  { (Gsc.Config.generational ~budget_bytes:(256 * 1024)) with
    Gsc.Config.nursery_bytes_max = 8 * 1024;
    profiling = true }

let profiled_run ?(cfg = generational_cfg) () =
  let rt = R.create cfg in
  Fun.protect ~finally:(fun () -> R.destroy rt) @@ fun () ->
  let s_keep = R.register_site rt ~name:"keeper" in
  let s_churn = R.register_site rt ~name:"churn" in
  let key = R.register_frame rt ~name:"main" ~slots:(Workloads.Dsl.slots "pp") in
  R.call0 rt ~key (fun () ->
    for i = 1 to 4000 do
      R.alloc_record2 rt ~site:s_churn ~mask:0 ~dst:(R.to_slot 1)
        (R.imm i) (R.imm i);
      if i mod 40 = 0 then
        (* keepers hold a pointer to the previous keeper *)
        R.alloc_record2 rt ~site:s_keep ~mask:0b10 ~dst:(R.to_slot 0)
          (R.imm i) (R.slot 0)
    done) ();
  (Option.get (R.profile rt), s_keep, s_churn)

let bimodal_profile () =
  let data, s_keep, s_churn = profiled_run () in
  let find site =
    List.find (fun s -> s.PD.site = site) data.PD.sites
  in
  let keep = find s_keep and churn = find s_churn in
  check_bool "keeper is old" true (keep.PD.old_fraction > 0.9);
  check_bool "churn dies young" true (churn.PD.old_fraction < 0.05);
  check_bool "keeper named" true (keep.PD.name = "keeper");
  check_bool "keeper copied bytes > 0" true (keep.PD.copied_bytes > 0);
  check_int "churn count" 4000 churn.PD.alloc_count;
  check_int "keeper count" 100 keep.PD.alloc_count;
  (* churn deaths were observed with a small average age *)
  check_bool "churn age observed" true (churn.PD.avg_age_kb > 0.)

(* the semispace collector feeds the profiler through the same rows *)
let semispace_profile () =
  let cfg =
    { (Gsc.Config.semispace ~budget_bytes:(256 * 1024)) with
      Gsc.Config.profiling = true }
  in
  let data, s_keep, s_churn = profiled_run ~cfg () in
  let gen, _, _ = profiled_run () in
  let find (d : PD.t) site = List.find (fun s -> s.PD.site = site) d.PD.sites in
  let keep = find data s_keep and churn = find data s_churn in
  check_int "churn count" 4000 churn.PD.alloc_count;
  check_int "keeper count" 100 keep.PD.alloc_count;
  check_int "alloc bytes as under generational"
    gen.PD.total_alloc_bytes data.PD.total_alloc_bytes;
  check_bool "keeper copied" true (keep.PD.copied_bytes > 0);
  check_bool "keeper is old" true (keep.PD.old_fraction > 0.9)

let selection_respects_cutoff_and_noise () =
  let data, s_keep, _ = profiled_run () in
  let selected = PD.select_pretenure_sites data ~cutoff:0.8 ~min_objects:32 in
  Alcotest.(check (list int)) "only the keeper" [ s_keep ] selected;
  (* a min_objects above the keeper count suppresses it *)
  let none = PD.select_pretenure_sites data ~cutoff:0.8 ~min_objects:1000 in
  Alcotest.(check (list int)) "noise guard" [] none

let edges_recorded () =
  let data, s_keep, _ = profiled_run () in
  (* keeper objects point at keeper objects *)
  check_bool "keeper self edge" true
    (List.mem (s_keep, s_keep) data.PD.edges)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    if i + nl > hl then false
    else if String.sub haystack i nl = needle then true
    else go (i + 1)
  in
  go 0

let report_contains_summary () =
  let data, _, _ = profiled_run () in
  let text = Heap_profile.Report.render ~title:"unit" ~cutoff:0.8 data in
  check_bool "marks targeted sites" true
    (String.length text > 0
     && contains text "<--"
     && contains text "targeted sites comprise")

(* --- Site_flow / Pretenure --- *)

let site_flow_scan_free () =
  let module IS = Gsc.Site_flow.Int_set in
  let pretenured = IS.of_list [ 1; 2; 3 ] in
  (* 1 points only at 2 (pretenured): scan-free.
     2 points at 9 (not pretenured): needs scanning.
     3 has no out-edges: scan-free. *)
  let edges = [ (1, 2); (2, 9); (7, 1) ] in
  let free = Gsc.Site_flow.scan_free ~edges ~pretenured in
  Alcotest.(check (list int)) "scan-free sites" [ 1; 3 ] (IS.elements free)

let pretenure_policy_basics () =
  let p = Gsc.Pretenure.of_sites ~sites:[ 4; 5 ] ~no_scan:[ 5 ] in
  Alcotest.(check (list int)) "pretenures 4 and 5" [ 4; 5 ]
    (Gsc.Pretenure.pretenured_sites p);
  Alcotest.(check (list int)) "only 5 scan-free" [ 5 ]
    (Gsc.Pretenure.no_scan_sites p);
  Alcotest.check_raises "no_scan must be subset"
    (Invalid_argument "Pretenure.of_sites: no_scan must be a subset of sites")
    (fun () -> ignore (Gsc.Pretenure.of_sites ~sites:[ 1 ] ~no_scan:[ 2 ]))

let pretenure_from_profile_end_to_end () =
  let data, s_keep, _ = profiled_run () in
  let policy =
    Gsc.Pretenure.of_profile data ~cutoff:0.8 ~min_objects:32
      ~scan_elision:true
  in
  check_bool "keeper pretenured" true
    (List.mem s_keep (Gsc.Pretenure.pretenured_sites policy));
  (* keeper points only at keeper, so it is scan-free under elision *)
  check_bool "keeper scan-free" true
    (List.mem s_keep (Gsc.Pretenure.no_scan_sites policy));
  (* rerun the same program pretenured: keepers never get copied *)
  let cfg =
    { (Gsc.Config.with_pretenuring ~budget_bytes:(256 * 1024) policy) with
      Gsc.Config.nursery_bytes_max = 8 * 1024 }
  in
  let rt = R.create cfg in
  Fun.protect ~finally:(fun () -> R.destroy rt) @@ fun () ->
  let s_keep' = R.register_site rt ~name:"keeper" in
  let s_churn' = R.register_site rt ~name:"churn" in
  check_int "site ids stable across runs" s_keep s_keep';
  let key = R.register_frame rt ~name:"main" ~slots:(Workloads.Dsl.slots "pp") in
  R.call0 rt ~key (fun () ->
    for i = 1 to 4000 do
      R.alloc_record2 rt ~site:s_churn' ~mask:0 ~dst:(R.to_slot 1)
        (R.imm i) (R.imm i);
      if i mod 40 = 0 then
        R.alloc_record2 rt ~site:s_keep' ~mask:0b10 ~dst:(R.to_slot 0)
          (R.imm i) (R.slot 0)
    done;
    ignore (R.check_heap rt : int)) ();
  let stats = R.stats rt in
  check_bool "keepers pretenured" true
    (stats.Collectors.Gc_stats.words_pretenured = 100 * 5);
  check_bool "copying collapsed" true
    (stats.Collectors.Gc_stats.words_copied * 4
     < stats.Collectors.Gc_stats.words_pretenured)

let () =
  Alcotest.run "profile"
    [ ( "profiler",
        [ Alcotest.test_case "bimodal profile" `Quick bimodal_profile;
          Alcotest.test_case "semispace profile" `Quick semispace_profile;
          Alcotest.test_case "selection" `Quick selection_respects_cutoff_and_noise;
          Alcotest.test_case "edges" `Quick edges_recorded ] );
      ( "report",
        [ Alcotest.test_case "report" `Quick report_contains_summary ] );
      ( "pretenure",
        [ Alcotest.test_case "site flow" `Quick site_flow_scan_free;
          Alcotest.test_case "policy basics" `Quick pretenure_policy_basics;
          Alcotest.test_case "end to end" `Quick pretenure_from_profile_end_to_end ] ) ]
