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

(* --- every program's profile, pinned ---

   A profiling run must not change what it measures: the [Profile_data]
   of each program, of serve and of three collectors' death sweeps
   equals a digest recorded before the profiler's tables became flat
   arrays.  Only a deliberate change to the profile may re-record them
   (the failure prints the new digests). *)

(* every field of every site, floats in exact hexadecimal, then the
   edges and the totals *)
let profile_text (d : PD.t) =
  let b = Buffer.create 1024 in
  List.iter
    (fun (s : PD.site) ->
      Printf.bprintf b "%d %s %d %d %h %h %d\n" s.PD.site s.PD.name
        s.PD.alloc_bytes s.PD.alloc_count s.PD.old_fraction s.PD.avg_age_kb
        s.PD.copied_bytes)
    d.PD.sites;
  List.iter (fun (f, t) -> Printf.bprintf b "%d>%d\n" f t) d.PD.edges;
  Printf.bprintf b "%d %d\n" d.PD.total_alloc_bytes d.PD.total_copied_bytes;
  Buffer.contents b

let profile_digest d = Digest.to_hex (Digest.string (profile_text d))

(* a profiled run of [w] at [scale] under the standard profiled
   configuration at [k], tuned, with the exit deaths observed as the
   harness observes them *)
let program_profile ?(tune = Fun.id) ~k ~scale (w : Workloads.Spec.t) =
  let cfg =
    tune
      (Harness.Runs.config_for ~workload:w ~scale
         ~technique:Harness.Runs.Profiled ~k)
  in
  let rt = R.create cfg in
  Fun.protect ~finally:(fun () -> R.destroy rt) @@ fun () ->
  w.Workloads.Spec.run rt ~scale;
  R.observe_exit_deaths rt;
  Option.get (R.profile rt)

(* serve's profiled training run as bench/e2e sets it up, at 2,000
   requests *)
let serve_profile () =
  let base = Gsc.Config.generational ~budget_bytes:(4 * 1024 * 1024) in
  let rt =
    R.create
      { base with
        Gsc.Config.nursery_bytes_max = 32 * 1024;
        tenured_backend = Alloc.Backend.Free_list;
        global_slots = max base.Gsc.Config.global_slots 3;
        profiling = true }
  in
  Fun.protect ~finally:(fun () -> R.destroy rt) @@ fun () ->
  ignore
    (Workloads.Serve.run rt ~tenants:3 ~sessions:64 ~requests:2_000
       ~rate_rps:25_000. ~seed:42 ()
      : Workloads.Serve.report);
  R.observe_exit_deaths rt;
  Option.get (R.profile rt)

let mark_sweep c =
  { c with
    Gsc.Config.major_kind = Collectors.Generational.Mark_sweep;
    tenured_backend = Alloc.Backend.Free_list }

let semispace c =
  { (Gsc.Config.semispace ~budget_bytes:c.Gsc.Config.budget_bytes) with
    Gsc.Config.profiling = true }

(* (case, profile): each program at its smallest scale, serve, then each
   program at its default scale under the copying generational
   collector (k = 4), the mark-sweep major (k = 1.5) and the semispace
   collector *)
let profile_cases () =
  let each f = List.map f Workloads.Registry.all in
  let default name ?tune ~k (w : Workloads.Spec.t) =
    ( w.Workloads.Spec.name ^ name,
      fun () ->
        program_profile ?tune ~k ~scale:w.Workloads.Spec.default_scale w )
  in
  each (fun w ->
    ( w.Workloads.Spec.name ^ "/smallest",
      fun () -> program_profile ~k:4. ~scale:(fst w.Workloads.Spec.scale_range) w ))
  @ [ ("serve/2000", serve_profile) ]
  @ each (default "/gen" ~k:4.)
  @ each (default "/mark_sweep" ~tune:mark_sweep ~k:1.5)
  @ each (default "/semispace" ~tune:semispace ~k:4.)

(* recorded before the profiler's tables became flat arrays; equal on
   the release and dev builds *)
let recorded_profile_digests =
  [
    ("checksum/smallest", "359278d6e92dda8529b4827e2e1dc1ef");
    ("color/smallest", "f54dc66190d1b33967238ca9aab1b0ce");
    ("fft/smallest", "6dc9fc19096929edef20ebf82488e9d8");
    ("grobner/smallest", "1f8b7eb79e6a11c55d87f48b27373dab");
    ("knuth-bendix/smallest", "96dcc4c1db885b6805b75b0cf9615a12");
    ("lexgen/smallest", "0fc82c303de16d76971a57b770807f3a");
    ("life/smallest", "ef84df3b62769177cb17b2416aca560b");
    ("nqueen/smallest", "a865744c91c22a48c5e11c9f86950224");
    ("peg/smallest", "0ce3b8d92dbf3e58e16e453e4d151461");
    ("pia/smallest", "9a5d643ff1b730b7eac2f4cee9f623f5");
    ("simple/smallest", "b66f376d2f1201798482e08e72cf4986");
    ("serve/2000", "74d275ce9cdc322b728823e6bc460946");
    ("checksum/gen", "b68c0aa2f1a87a5e8c60f896324f2845");
    ("color/gen", "e9bd20535b53fbc0cfb5e388ab7a9040");
    ("fft/gen", "dad34602817303ea74017557dd0ca24a");
    ("grobner/gen", "ef5fdd064baef0e56f68b78da052fc0f");
    ("knuth-bendix/gen", "9f06df71498689549daf9b42b84ce041");
    ("lexgen/gen", "274116b1215987c25b26c1a5b6605a13");
    ("life/gen", "fa078f731cb3e076862091a760d4526d");
    ("nqueen/gen", "4e6f00f9bda1a5dcbd42bff7a0f40917");
    ("peg/gen", "ab38138c42f2456df55965e02b58ce58");
    ("pia/gen", "0c96e4b9587a7feabbe88e4924b079f4");
    ("simple/gen", "56771976f1970507bf67c26c9dd4493c");
    ("checksum/mark_sweep", "846e6ec0ce689ae16c8a4bbe0e73d771");
    ("color/mark_sweep", "c4b03da4be7a9a8b0a99b722c7b16a1b");
    ("fft/mark_sweep", "5a28ea468e20c69dca413b2e29fcecd3");
    ("grobner/mark_sweep", "118c0610bb094b666422a9007afb742b");
    ("knuth-bendix/mark_sweep", "9f06df71498689549daf9b42b84ce041");
    ("lexgen/mark_sweep", "40580046300044eb990d04cd2a2428b0");
    ("life/mark_sweep", "c293a2cafa563e5bb58411279f1883f0");
    ("nqueen/mark_sweep", "6c68ce4cfe0c18cb81d23d7cf5c29866");
    ("peg/mark_sweep", "ab38138c42f2456df55965e02b58ce58");
    ("pia/mark_sweep", "6848c74dab931e40e28c92b02ac9a9c0");
    ("simple/mark_sweep", "8b56ed0d966155fa3c1e988a8514fc0a");
    ("checksum/semispace", "f81924c4ff501bf4c0d9b8b3cd218284");
    ("color/semispace", "e9be6519119f885a0316340b9e17a708");
    ("fft/semispace", "e167e7b33cc0bfca06c7108611517a2e");
    ("grobner/semispace", "9a81df97fee45267f1ee5f066ef8e438");
    ("knuth-bendix/semispace", "1bb350c690333b81bf5a7915af711043");
    ("lexgen/semispace", "02383dc2950e0bc6d5815e306eb3edbe");
    ("life/semispace", "2ff1a92b55cb7022021c2d86292c6479");
    ("nqueen/semispace", "7b081c32d80fbf47b302a6464a669de7");
    ("peg/semispace", "70041269de8379bfd5363b621748fe32");
    ("pia/semispace", "a60d0be045bb6db8240b395e6e8c3d1e");
    ("simple/semispace", "33c41ebd22b2da7b6f23a8fa07c540c7") ]

let profiles_pinned () =
  let got =
    List.map (fun (name, f) -> (name, profile_digest (f ()))) (profile_cases ())
  in
  if got <> recorded_profile_digests then begin
    List.iter (fun (name, d) -> Printf.printf "    (%S, %S);\n" name d) got;
    Alcotest.fail "a profile changed (new digests printed above)"
  end

let () =
  Alcotest.run "profile"
    [ ( "profiler",
        [ Alcotest.test_case "bimodal profile" `Quick bimodal_profile;
          Alcotest.test_case "semispace profile" `Quick semispace_profile;
          Alcotest.test_case "selection" `Quick selection_respects_cutoff_and_noise;
          Alcotest.test_case "edges" `Quick edges_recorded;
          Alcotest.test_case "profiles pinned" `Quick profiles_pinned ] );
      ( "report",
        [ Alcotest.test_case "report" `Quick report_contains_summary ] );
      ( "pretenure",
        [ Alcotest.test_case "site flow" `Quick site_flow_scan_free;
          Alcotest.test_case "policy basics" `Quick pretenure_policy_basics;
          Alcotest.test_case "end to end" `Quick pretenure_from_profile_end_to_end ] ) ]
