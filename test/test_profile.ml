(* Tests for the heap profiler, the Figure 2 report and the
   pretenuring policy. *)

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

(* --- Pretenure --- *)

let pretenure_policy_basics () =
  let p = Gsc.Pretenure.of_sites ~sites:[ 5; 4; 5 ] ~scan_elision:true in
  Alcotest.(check (list int)) "pretenures 4 and 5" [ 4; 5 ]
    (Gsc.Pretenure.pretenured_sites p);
  check_bool "elides" true (Gsc.Pretenure.scan_elision p);
  check_bool "none elides nothing" false
    (Gsc.Pretenure.scan_elision Gsc.Pretenure.none)

let pretenure_from_profile_end_to_end () =
  let data, s_keep, _ = profiled_run () in
  let policy =
    Gsc.Pretenure.of_profile data ~cutoff:0.8 ~min_objects:32
      ~scan_elision:true
  in
  check_bool "keeper pretenured" true
    (List.mem s_keep (Gsc.Pretenure.pretenured_sites policy));
  check_bool "elision carried" true (Gsc.Pretenure.scan_elision policy);
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

(* Keepers whose records point at young churn: every 40th churn record
   is held by a keeper, which also links the previous keeper.  The
   keeper site is old, the churn site young, so a profile pretenures
   the keeper alone and each keeper is initialised with a pointer into
   the nursery.  Returns the sum the keepers' churn referents hold
   (40 + 80 + ... + 4000 = 202000 when none is lost). *)
let keepers_holding_churn rt =
  let s_keep = R.register_site rt ~name:"keeper" in
  let s_churn = R.register_site rt ~name:"churn" in
  let key = R.register_frame rt ~name:"main" ~slots:(Workloads.Dsl.slots "pp") in
  R.call0 rt ~key (fun () ->
    for i = 1 to 4000 do
      R.alloc_record2 rt ~site:s_churn ~mask:0 ~dst:(R.to_slot 1)
        (R.imm i) (R.imm i);
      if i mod 40 = 0 then
        R.alloc_record2 rt ~site:s_keep ~mask:0b11 ~dst:(R.to_slot 0)
          (R.slot 1) (R.slot 0)
    done;
    ignore (R.check_heap rt : int);
    let sum = ref 0 in
    for _ = 1 to 100 do
      R.load_field rt ~obj:(R.slot 0) ~idx:0 ~dst:(R.to_slot 1);
      sum := !sum + R.field_int rt ~obj:(R.slot 1) ~idx:0;
      R.load_field rt ~obj:(R.slot 0) ~idx:1 ~dst:(R.to_slot 0)
    done;
    !sum) ()

(* A profiled site whose records point at young objects is pretenured
   and elided like any other: its initialising stores go through the
   barrier, so every referent survives and the run copies exactly what
   the scanned run copies. *)
let elision_keeps_young_referents () =
  let profiled =
    let rt = R.create generational_cfg in
    Fun.protect ~finally:(fun () -> R.destroy rt) @@ fun () ->
    check_int "profiled run loses nothing" 202000 (keepers_holding_churn rt);
    Option.get (R.profile rt)
  in
  let run ~scan_elision =
    let policy =
      Gsc.Pretenure.of_profile profiled ~cutoff:0.8 ~min_objects:32
        ~scan_elision
    in
    let cfg =
      { (Gsc.Config.with_pretenuring ~budget_bytes:(256 * 1024) policy) with
        Gsc.Config.nursery_bytes_max = 8 * 1024;
        verify_heap = true }
    in
    let rt = R.create cfg in
    Fun.protect ~finally:(fun () -> R.destroy rt) @@ fun () ->
    let sum = keepers_holding_churn rt in
    (policy, sum, R.stats rt)
  in
  let scanned_policy, scanned_sum, scanned = run ~scan_elision:false in
  let elided_policy, elided_sum, elided = run ~scan_elision:true in
  Alcotest.(check (list int)) "the keeper alone is pretenured" [ 0 ]
    (Gsc.Pretenure.pretenured_sites elided_policy);
  Alcotest.(check (list int)) "both runs pretenure the same sites"
    (Gsc.Pretenure.pretenured_sites scanned_policy)
    (Gsc.Pretenure.pretenured_sites elided_policy);
  check_int "scanned run keeps every referent" 202000 scanned_sum;
  check_int "elided run keeps every referent" 202000 elided_sum;
  let open Collectors.Gc_stats in
  check_int "keepers pretenured" (100 * 5) elided.words_pretenured;
  check_int "no fallback while scanning" 0 scanned.region_scan_fallbacks;
  check_bool "young referents went through the barrier" true
    (elided.region_scan_fallbacks > 0);
  check_int "elision scans no region" 0 elided.words_region_scanned;
  check_bool "the scanned run scanned the region" true
    (scanned.words_region_scanned > 0);
  check_int "the same copying" scanned.words_copied elided.words_copied

(* The policy file carries the elision switch both ways, and a loaded
   policy pretenures as the in-process derivation does; a file of the
   previous format (a per-site no-scan list) is refused by version. *)
let policy_file_carries_elision () =
  let data, s_keep, _ = profiled_run () in
  List.iter
    (fun scan_elision ->
      let what = Printf.sprintf "scan_elision=%b" scan_elision in
      let pf =
        Gsc.Policy_file.of_profile_data data ~cutoff:0.8 ~min_objects:32
          ~scan_elision
      in
      Alcotest.(check (list int)) (what ^ ": sites") [ s_keep ]
        pf.Gsc.Policy_file.sites;
      let back =
        match Gsc.Policy_file.of_json (Gsc.Policy_file.to_json pf) with
        | Ok p -> p
        | Error msg -> Alcotest.failf "%s: %s" what msg
      in
      check_bool (what ^ ": round trip") true (back = pf);
      let loaded = Gsc.Pretenure.of_policy back
      and direct =
        Gsc.Pretenure.of_profile data ~cutoff:0.8 ~min_objects:32
          ~scan_elision
      in
      Alcotest.(check (list int)) (what ^ ": loaded sites")
        (Gsc.Pretenure.pretenured_sites direct)
        (Gsc.Pretenure.pretenured_sites loaded);
      check_bool (what ^ ": loaded switch") scan_elision
        (Gsc.Pretenure.scan_elision loaded))
    [ false; true ];
  let old =
    Obs.Json.parse
      {|{"v":5,"kind":"pretenure_policy","cutoff":0.8,"min_objects":32,"sites":[0],"no_scan":[0]}|}
  in
  match Gsc.Policy_file.of_json old with
  | Ok _ -> Alcotest.fail "a version-5 policy was accepted"
  | Error msg ->
    Alcotest.(check string) "refused by version"
      (Printf.sprintf
         "policy version 5 not supported (this build reads version %d)"
         Obs.Event.version)
      msg

(* --- every program's profile, pinned ---

   A profiling run must not change what it measures: the [Profile_data]
   of each program, of serve and of three collectors' death sweeps
   equals a digest recorded before the profiler's tables became flat
   arrays.  Only a deliberate change to the profile may re-record them
   (the failure prints the new digests). *)

(* every field of every site, floats in exact hexadecimal, then the
   totals *)
let profile_text (d : PD.t) =
  let b = Buffer.create 1024 in
  List.iter
    (fun (s : PD.site) ->
      Printf.bprintf b "%d %s %d %d %h %h %d\n" s.PD.site s.PD.name
        s.PD.alloc_bytes s.PD.alloc_count s.PD.old_fraction s.PD.avg_age_kb
        s.PD.copied_bytes)
    d.PD.sites;
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

(* recorded before the profiler's tables became flat arrays, then
   derived without re-recording when the observed points-to edges left
   the profile: the code before that change, run with the edge lines
   left out of [profile_text], printed exactly these.  Equal on the release and dev
   builds *)
let recorded_profile_digests =
  [
    ("checksum/smallest", "359278d6e92dda8529b4827e2e1dc1ef");
    ("color/smallest", "197dfb0a0d7601cb299c1f73d30ed622");
    ("fft/smallest", "6dc9fc19096929edef20ebf82488e9d8");
    ("grobner/smallest", "4f9742ab10e52d72b85a4d6a393c43b7");
    ("knuth-bendix/smallest", "deef33cb9a351e92e0e09d8fda3ba55f");
    ("lexgen/smallest", "e22b3490781eff6a1e49161757c4adeb");
    ("life/smallest", "ebfde7cd25f157670c9508b3aa6446d7");
    ("nqueen/smallest", "8fcbc7f1e9f623d833c664ec701e7f08");
    ("peg/smallest", "d0d16a9cde6aaefd08c33b1ac9a9676c");
    ("pia/smallest", "ddd86f5885b2a3c1b7d698302742c6ee");
    ("simple/smallest", "1aec60567d5573136885cf01134a5fb2");
    ("serve/2000", "65ad17b3b7d1373bb9f276232ce66d3d");
    ("checksum/gen", "b68c0aa2f1a87a5e8c60f896324f2845");
    ("color/gen", "a0de5bc76d8d5ea19fceefb574276cd0");
    ("fft/gen", "dad34602817303ea74017557dd0ca24a");
    ("grobner/gen", "9f2411832e14f1a7828050a735fe957f");
    ("knuth-bendix/gen", "26379d1a23ed7d3f1a411330ec41e476");
    ("lexgen/gen", "1221b0ede8e00d0dd5051f0aab6ae9f0");
    ("life/gen", "4c149e4a95682037ed7e92d075295b7e");
    ("nqueen/gen", "dd78c73fbd779def0430066f1c12e6da");
    ("peg/gen", "4d9524f01c587bb68b26fbb23b6d40e3");
    ("pia/gen", "290b0d567d42e3c8e03beb4fa2434c4c");
    ("simple/gen", "0cc159749bae518c24270db3bf78f980");
    ("checksum/mark_sweep", "846e6ec0ce689ae16c8a4bbe0e73d771");
    ("color/mark_sweep", "51a8463ce1f6c66a8d9dd4881f524558");
    ("fft/mark_sweep", "5a28ea468e20c69dca413b2e29fcecd3");
    ("grobner/mark_sweep", "3fdab8f660447e8766b969004f894cdd");
    ("knuth-bendix/mark_sweep", "26379d1a23ed7d3f1a411330ec41e476");
    ("lexgen/mark_sweep", "9dea2249fb7fde55aac11db0ab355232");
    ("life/mark_sweep", "cb35125d2ae001c624caf326cc36d1a1");
    ("nqueen/mark_sweep", "a000dac4f329cf52bfcfd6a4b045ac80");
    ("peg/mark_sweep", "4d9524f01c587bb68b26fbb23b6d40e3");
    ("pia/mark_sweep", "e72448dd7a06121be1c6f15fff1159aa");
    ("simple/mark_sweep", "ab27e696f6a69970c7f416934d14b111");
    ("checksum/semispace", "f81924c4ff501bf4c0d9b8b3cd218284");
    ("color/semispace", "ccf4126877c02eb70df4cf197673d5ff");
    ("fft/semispace", "e167e7b33cc0bfca06c7108611517a2e");
    ("grobner/semispace", "eb50c0a84e496f120add005aad0c0af4");
    ("knuth-bendix/semispace", "769229672f7a8e3d394a5447ad38900c");
    ("lexgen/semispace", "2a17b1bd5e2eb889081db79afa0b1de5");
    ("life/semispace", "f1ceab5035ae564fe371065e7da19296");
    ("nqueen/semispace", "81f73a0c7046125a1108d54f35acce14");
    ("peg/semispace", "b946c783cafe64cdd9bca88122f5595d");
    ("pia/semispace", "403ce4e58076ba5373b756e53705f359");
    ("simple/semispace", "d10b3da25f0adca60cbea9556bf4c211") ]

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
          Alcotest.test_case "profiles pinned" `Quick profiles_pinned ] );
      ( "report",
        [ Alcotest.test_case "report" `Quick report_contains_summary ] );
      ( "pretenure",
        [ Alcotest.test_case "policy basics" `Quick pretenure_policy_basics;
          Alcotest.test_case "end to end" `Quick pretenure_from_profile_end_to_end;
          Alcotest.test_case "elision keeps young referents" `Quick
            elision_keeps_young_referents;
          Alcotest.test_case "policy file carries elision" `Quick
            policy_file_carries_elision ] ) ]
