(* The `repro` command-line tool: regenerate any table or figure of the
   paper, profile a workload, derive and save pretenuring policies, or
   run a single workload under a chosen configuration. *)

open Cmdliner

let factor_arg =
  let doc =
    "Scale factor applied to every workload's default problem size."
  in
  Arg.(value & opt float 1.0 & info [ "factor"; "f" ] ~docv:"FACTOR" ~doc)

let workload_arg =
  let doc = "Workload name (see `repro list`)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD" ~doc)

(* --- list --- *)

let list_cmd =
  let run () =
    List.iter
      (fun w ->
        Printf.printf "%-14s %s\n" w.Workloads.Spec.name
          w.Workloads.Spec.description)
      Workloads.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the benchmark workloads")
    Term.(const run $ const ())

(* --- tables --- *)

let tables_cmd =
  let only =
    let doc = "Render only this item (table1..table7, figure2, ablation)." in
    Arg.(value & opt (some string) None & info [ "only" ] ~docv:"ID" ~doc)
  in
  let trace =
    let doc = "Also write a JSONL GC trace of the whole run to $(docv)." in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let run factor only trace_path =
    match only with
    | None -> print_string (Harness.Suite.render_all ?trace_path ~factor ())
    | Some id ->
      (match Harness.Suite.render_one ?trace_path ~factor id with
       | s -> print_string s
       | exception Not_found ->
         prerr_endline ("unknown item: " ^ id);
         exit 2)
  in
  Cmd.v
    (Cmd.info "tables"
       ~doc:"Regenerate the paper's tables and figures (all by default)")
    Term.(const run $ factor_arg $ only $ trace)

(* --- figure2 --- *)

let figure2_cmd =
  let run factor = print_string (Harness.Figure2.render ~factor) in
  Cmd.v
    (Cmd.info "figure2"
       ~doc:"Heap-profile reports for Knuth-Bendix and Nqueen (Figure 2)")
    Term.(const run $ factor_arg)

(* --- ablation --- *)

let ablation_cmd =
  let run factor = print_string (Harness.Ablation.render ~factor) in
  Cmd.v
    (Cmd.info "ablation" ~doc:"Design-choice ablations (see DESIGN.md)")
    Term.(const run $ factor_arg)

(* --- profile --- *)

let profile_cmd =
  let out =
    let doc = "Write the raw profile to this file (for later pretenuring)." in
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc)
  in
  let run factor name out =
    match Workloads.Registry.find name with
    | exception Not_found ->
      prerr_endline ("unknown workload: " ^ name);
      exit 2
    | w ->
      let sc = Harness.Runs.scale ~factor w in
      let data = Harness.Runs.profile_of ~workload:w ~scale:sc in
      print_string
        (Heap_profile.Report.render ~title:name ~cutoff:Harness.Runs.cutoff
           data);
      (match out with
       | None -> ()
       | Some path ->
         Heap_profile.Profile_data.save data ~path;
         Printf.printf "profile written to %s\n" path)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Heap-profile a workload and print the Figure 2 report")
    Term.(const run $ factor_arg $ workload_arg $ out)

(* --- check --- *)

let check_cmd =
  let run factor =
    let out = Harness.Claims.render ~factor in
    print_string out;
    if not (Harness.Claims.all_pass ~factor) then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Verify the paper's headline claims against fresh measurements \
          (exit 1 on any failure)")
    Term.(const run $ factor_arg)

(* --- calibrate --- *)

let calibrate_cmd =
  let run factor =
    Printf.printf "%-14s %12s %12s  (Min = 2 x max live; budgets are k*Min)\n"
      "Workload" "Max live" "Min";
    List.iter
      (fun w ->
        let sc = Harness.Runs.scale ~factor w in
        let live = Harness.Calibrate.max_live_bytes ~workload:w ~scale:sc in
        Printf.printf "%-14s %12s %12s\n" w.Workloads.Spec.name
          (Support.Units.bytes live)
          (Support.Units.bytes (Harness.Calibrate.min_bytes ~workload:w ~scale:sc)))
      Workloads.Registry.all
  in
  Cmd.v
    (Cmd.info "calibrate"
       ~doc:"Measure Min (twice the maximum live data) for every workload")
    Term.(const run $ factor_arg)

(* --- run --- *)

let run_cmd =
  let technique =
    let techniques =
      [ ("semi", Harness.Runs.Semi); ("gen", Harness.Runs.Gen);
        ("markers", Harness.Runs.Markers);
        ("pretenure", Harness.Runs.Pretenure);
        ("pretenure-elide", Harness.Runs.Pretenure_elide) ]
    in
    let doc = "Collector technique: semi, gen, markers, pretenure, \
               pretenure-elide." in
    Arg.(value & opt (enum techniques) Harness.Runs.Gen
         & info [ "technique"; "t" ] ~docv:"TECH" ~doc)
  in
  let k_arg =
    let doc = "Memory multiple of the calibrated Min." in
    Arg.(value & opt float 4.0 & info [ "k" ] ~docv:"K" ~doc)
  in
  let pretenure_from =
    let doc =
      "Derive the pretenuring policy from this saved profile (see `repro \
       profile --out`) instead of profiling in-process."
    in
    Arg.(value & opt (some file) None
         & info [ "pretenure-from" ] ~docv:"FILE" ~doc)
  in
  let policy_arg =
    let doc =
      "Pretenure from a policy file emitted by `repro gc-profile \
       emit-policy` (the trace-driven loop; no profiler attached)."
    in
    Arg.(value & opt (some file) None & info [ "policy" ] ~docv:"FILE" ~doc)
  in
  let verify =
    let doc = "Walk and check the whole heap after every collection." in
    Arg.(value & flag & info [ "verify" ] ~doc)
  in
  let run factor name technique k pretenure_from policy verify =
    match Workloads.Registry.find name with
    | exception Not_found ->
      prerr_endline ("unknown workload: " ^ name);
      exit 2
    | w ->
      let sc = Harness.Runs.scale ~factor w in
      let m =
        match pretenure_from, policy, verify with
        | None, None, false ->
          Harness.Runs.measure ~workload:w ~scale:sc ~technique ~k
        | _ ->
          (* ad-hoc configuration: saved profile or policy file, and/or
             verification *)
          let budget = Harness.Calibrate.budget_for ~workload:w ~scale:sc ~k in
          let base =
            match technique, pretenure_from, policy with
            | _, _, Some path ->
              (match Gsc.Config.with_policy_file ~budget_bytes:budget path with
               | Ok cfg -> cfg
               | Error msg ->
                 prerr_endline ("policy " ^ path ^ ": " ^ msg);
                 exit 1)
            | _, Some path, None ->
              let data = Heap_profile.Profile_data.load ~path in
              let policy =
                Gsc.Pretenure.of_profile data ~cutoff:Harness.Runs.cutoff
                  ~min_objects:Harness.Runs.min_objects
                  ~scan_elision:(technique = Harness.Runs.Pretenure_elide)
              in
              Gsc.Config.with_pretenuring ~budget_bytes:budget policy
            | Harness.Runs.Semi, None, None ->
              Gsc.Config.semispace ~budget_bytes:budget
            | Harness.Runs.Gen, None, None ->
              Gsc.Config.generational ~budget_bytes:budget
            | (Harness.Runs.Markers | Harness.Runs.Profiled), None, None ->
              Gsc.Config.with_markers ~budget_bytes:budget
            | (Harness.Runs.Pretenure | Harness.Runs.Pretenure_elide), None, None ->
              Gsc.Config.with_pretenuring ~budget_bytes:budget
                (Harness.Runs.policy_of ~workload:w ~scale:sc
                   ~scan_elision:(technique = Harness.Runs.Pretenure_elide))
          in
          let cfg =
            Harness.Runs.with_nursery_cap
              { base with Gsc.Config.verify_heap = verify }
          in
          Harness.Measure.run ~workload:w ~scale:sc ~cfg ~k ()
      in
      Printf.printf "%s under %s at k=%.1f (scale %d)\n" name
        (Harness.Runs.technique_name technique)
        k sc;
      Printf.printf "  total   %.3fs (gc %.3fs = stack %.3fs + copy %.3fs)\n"
        m.Harness.Measure.total_seconds m.Harness.Measure.gc_seconds
        m.Harness.Measure.stack_seconds m.Harness.Measure.copy_seconds;
      Printf.printf "  gcs     %d (%d minor, %d major)\n"
        m.Harness.Measure.num_gcs m.Harness.Measure.minor_gcs
        m.Harness.Measure.major_gcs;
      Printf.printf "  alloc   %s   copied %s   pretenured %s\n"
        (Support.Units.bytes m.Harness.Measure.bytes_allocated)
        (Support.Units.bytes m.Harness.Measure.bytes_copied)
        (Support.Units.bytes m.Harness.Measure.bytes_pretenured);
      Printf.printf "  stack   depth avg %.1f / max %d; frames %d decoded, \
                     %d reused; %d stubs\n"
        m.Harness.Measure.avg_depth_at_gc m.Harness.Measure.max_depth_overall
        m.Harness.Measure.frames_decoded m.Harness.Measure.frames_reused
        m.Harness.Measure.stub_hits
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one workload under one configuration")
    Term.(
      const run $ factor_arg $ workload_arg $ technique $ k_arg
      $ pretenure_from $ policy_arg $ verify)

(* Shared Arg converters for collector knobs (gc-trace and gc-serve). *)

let backend_conv =
  let parse s =
    match Alloc.Backend.kind_of_string s with
    | Some k -> Ok k
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown backend %S (bump, free_list, size_class)"
              s))
  in
  Arg.conv
    ( parse,
      fun fmt k -> Format.pp_print_string fmt (Alloc.Backend.kind_name k) )

let major_kind_conv =
  let parse s =
    match Collectors.Generational.major_kind_of_string s with
    | Some k -> Ok k
    | None ->
      Error
        (`Msg (Printf.sprintf "unknown major kind %S (copying, mark_sweep)" s))
  in
  Arg.conv
    ( parse,
      fun fmt k ->
        Format.pp_print_string fmt
          (Collectors.Generational.major_kind_name k) )

(* The collector-knob rules [Generational.create] enforces, checked up
   front so a bad combination is a usage error (exit 2) rather than an
   uncaught [Invalid_argument].  The chunk-words floor depends on the
   header size: a traced run's packed headers carry the birth word. *)
let validate_collector_knobs cmd ~parallelism ~major_kind ?(chunk_words = 0)
    header_layout =
  let fail msg =
    Printf.eprintf "%s: %s\n" cmd msg;
    exit 2
  in
  let max = Collectors.Gc_stats.max_domains in
  if parallelism < 1 || parallelism > max then
    fail (Printf.sprintf "--parallelism must be in [1, %d]" max);
  if major_kind = Collectors.Generational.Mark_sweep && parallelism > 1 then
    fail
      "--major-kind mark_sweep requires --parallelism 1 (the parallel drain \
       carves copy chunks off the space frontier)";
  let min_chunk = 2 * Mem.Header.layout_header_words header_layout in
  if chunk_words <> 0 && chunk_words < min_chunk then
    fail (Printf.sprintf "--chunk-words must be 0 or at least %d" min_chunk)

(* --- gc-trace --- *)

let gc_trace_cmd =
  let technique =
    let techniques =
      [ ("semi", Harness.Runs.Semi); ("gen", Harness.Runs.Gen);
        ("markers", Harness.Runs.Markers);
        ("pretenure", Harness.Runs.Pretenure);
        ("pretenure-elide", Harness.Runs.Pretenure_elide) ]
    in
    let doc = "Collector technique: semi, gen, markers, pretenure, \
               pretenure-elide." in
    Arg.(value & opt (enum techniques) Harness.Runs.Gen
         & info [ "technique"; "t" ] ~docv:"TECH" ~doc)
  in
  let k_arg =
    let doc = "Memory multiple of the calibrated Min." in
    Arg.(value & opt float 4.0 & info [ "k" ] ~docv:"K" ~doc)
  in
  let out =
    let doc = "Trace output file (default $(i,WORKLOAD).trace.jsonl)." in
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc)
  in
  let parallelism_arg =
    let doc = "Drain domains for the copying fixpoint (1 = sequential \
               engine; >1 emits per-domain copy.dN phase spans)." in
    Arg.(value & opt int 1 & info [ "parallelism"; "p" ] ~docv:"N" ~doc)
  in
  let mode_arg =
    let modes =
      [ ("virtual", Collectors.Par_drain.Virtual);
        ("real", Collectors.Par_drain.Real) ]
    in
    let doc = "Parallel-drain execution engine: $(b,virtual) (deterministic \
               single-threaded scheduler, simulated clocks) or $(b,real) \
               (OCaml domains, wall-clock phase spans).  Only meaningful \
               with --parallelism > 1." in
    Arg.(value & opt (enum modes) Collectors.Par_drain.Virtual
         & info [ "parallelism-mode" ] ~docv:"MODE" ~doc)
  in
  let chunk_words_arg =
    let doc = "Copy-chunk grant size in words for the real-mode drain \
               (0 = engine default)." in
    Arg.(value & opt int 0 & info [ "chunk-words" ] ~docv:"N" ~doc)
  in
  let census_arg =
    let doc = "Emit a heap census (per-site live words and object-age \
               buckets) every $(docv)-th collection; 0 disables the \
               census." in
    Arg.(value & opt int 0 & info [ "census" ] ~docv:"K" ~doc)
  in
  let tenured_backend_arg =
    let doc = "Placement policy for pretenured allocations: bump, \
               free_list or size_class." in
    Arg.(value & opt backend_conv Alloc.Backend.Bump
         & info [ "tenured-backend" ] ~docv:"BACKEND" ~doc)
  in
  let los_backend_arg =
    let doc = "Placement policy for the large-object space: bump, \
               free_list or size_class." in
    Arg.(value & opt backend_conv Alloc.Backend.Free_list
         & info [ "los-backend" ] ~docv:"BACKEND" ~doc)
  in
  let major_kind_arg =
    let doc = "Tenured collection strategy: $(b,copying) (evacuating \
               compaction, the default) or $(b,mark_sweep) (mark in \
               place, sweep dead objects back into --tenured-backend as \
               reusable holes; requires --parallelism 1)." in
    Arg.(value & opt major_kind_conv Collectors.Generational.Copying
         & info [ "major-kind" ] ~docv:"KIND" ~doc)
  in
  let header_layout_arg =
    let layouts =
      [ ("classic", Mem.Header.Classic); ("packed", Mem.Header.Packed) ]
    in
    let doc = "Object-header layout: $(b,classic) (three words, the \
               default) or $(b,packed) (one meta word, plus a birth \
               word only while tracing/profiling; docs/LAYOUT.md)." in
    Arg.(value & opt (enum layouts) Mem.Header.Classic
         & info [ "header-layout" ] ~docv:"LAYOUT" ~doc)
  in
  let eager_evac_arg =
    let doc = "Hierarchical (eager-child) evacuation: copy an object's \
               children depth-first right behind it for cache locality \
               (placement only; statistics unchanged)." in
    Arg.(value & flag & info [ "eager-evac" ] ~doc)
  in
  let adaptive_arg =
    let doc = "Run the adaptive control plane at collection boundaries: \
               online nursery resizing, tenure-threshold tuning, dynamic \
               pretenuring and (mark_sweep) compaction scheduling, each \
               decision traced as a $(b,policy_update) record \
               (docs/ADAPTIVE.md)." in
    Arg.(value & flag & info [ "adaptive" ] ~doc)
  in
  let run factor name technique k out parallelism parallelism_mode chunk_words
      census_period tenured_backend los_backend major_kind header_layout
      eager_evac adaptive =
    match Workloads.Registry.find name with
    | exception Not_found ->
      prerr_endline ("unknown workload: " ^ name);
      exit 2
    | w ->
      validate_collector_knobs "gc-trace" ~parallelism ~major_kind ~chunk_words
        header_layout;
      let sc = Harness.Runs.scale ~factor w in
      let cfg =
        { (Harness.Runs.config_for ~workload:w ~scale:sc ~technique ~k) with
          Gsc.Config.parallelism; parallelism_mode; chunk_words; census_period;
          tenured_backend; los_backend; major_kind; header_layout; eager_evac;
          adaptive }
      in
      let path =
        match out with Some p -> p | None -> name ^ ".trace.jsonl"
      in
      let metrics = Obs.Metrics.create () in
      (* Site ids are registered by the workload run; capture the names
         before the runtime is destroyed so the summary can label the
         survival table. *)
      let names = Hashtbl.create 64 in
      Obs.Trace.with_file ~metrics path (fun () ->
        let rt = Gsc.Runtime.create cfg in
        Fun.protect ~finally:(fun () -> Gsc.Runtime.destroy rt) @@ fun () ->
        w.Workloads.Spec.run rt ~scale:sc;
        for site = 0 to Gsc.Runtime.site_count rt - 1 do
          Hashtbl.replace names site (Gsc.Runtime.site_name rt site)
        done);
      (match Obs.Schema.validate_file path with
       | Ok n ->
         Printf.printf "%s under %s at k=%.1f (scale %d)\n" name
           (Harness.Runs.technique_name technique) k sc;
         Printf.printf "%d trace records written to %s (schema-valid)\n\n" n
           path
       | Error msg ->
         Printf.eprintf "trace %s failed schema validation: %s\n" path msg;
         exit 1);
      let site_name id =
        match Hashtbl.find_opt names id with
        | Some n -> n
        | None -> Printf.sprintf "site-%d" id
      in
      print_string (Obs.Summary.render ~site_name metrics)
  in
  Cmd.v
    (Cmd.info "gc-trace"
       ~doc:
         "Run a workload with GC tracing on: write the JSONL event trace, \
          validate it against the schema, and print the pause-time \
          histograms, phase breakdown and site-survival tables")
    Term.(
      const run $ factor_arg $ workload_arg $ technique $ k_arg $ out
      $ parallelism_arg $ mode_arg $ chunk_words_arg $ census_arg
      $ tenured_backend_arg $ los_backend_arg $ major_kind_arg
      $ header_layout_arg $ eager_evac_arg $ adaptive_arg)

(* --- gc-profile --- *)

let gc_profile_cmd =
  let trace_arg =
    let doc = "JSONL trace file written by $(b,gc-trace)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc)
  in
  let top_arg =
    let doc = "Show at most $(docv) rows per site table." in
    Arg.(value & opt int 12 & info [ "top" ] ~docv:"N" ~doc)
  in
  let windows_arg =
    let doc = "MMU window sizes in microseconds (comma-separated)." in
    Arg.(value
         & opt (list float) [ 1_000.; 5_000.; 10_000.; 50_000.; 100_000. ]
         & info [ "windows" ] ~docv:"US,US,..." ~doc)
  in
  let analyze path =
    match Obs.Profile.of_file path with
    | Ok p -> p
    | Error msg ->
      Printf.eprintf "%s: %s\n" path msg;
      exit 1
  in
  let report_cmd =
    let diff_arg =
      let doc = "Compare $(i,TRACE) against this second trace instead of \
                 reporting on it alone." in
      Arg.(value & opt (some file) None & info [ "diff" ] ~docv:"TRACE2" ~doc)
    in
    let json_arg =
      let doc = "Emit the report as one JSON object instead of tables \
                 (header numbers, per-kind pause percentiles, the MMU \
                 curve, SLO breach tallies, per-site survival)." in
      Arg.(value & flag & info [ "json" ] ~doc)
    in
    let run path diff json top windows_us =
      if json && diff <> None then begin
        prerr_endline "gc-profile report: --json and --diff cannot be combined";
        exit 2
      end;
      let a = analyze path in
      match diff with
      | None ->
        if json then print_string (Obs.Summary.profile_json ~windows_us a)
        else print_string (Obs.Summary.profile_report ~top ~windows_us a)
      | Some path2 ->
        let b = analyze path2 in
        print_string (Obs.Summary.profile_diff ~top ~a ~b ())
    in
    Cmd.v
      (Cmd.info "report"
         ~doc:
           "Analyze a trace offline (no collector running) and print the \
            survival, pause-percentile, MMU, census and stack-scan tables; \
            with $(b,--diff), compare two traces; with $(b,--json), print \
            the machine-readable report")
      Term.(const run $ trace_arg $ diff_arg $ json_arg $ top_arg
            $ windows_arg)
  in
  let emit_policy_cmd =
    let out_arg =
      let doc = "Policy output file." in
      Arg.(value & opt string "policy.json" & info [ "out"; "o" ] ~docv:"FILE"
           ~doc)
    in
    let cutoff_arg =
      let doc = "Pretenure a site when its old fraction reaches $(docv)." in
      Arg.(value & opt float Harness.Runs.cutoff
           & info [ "cutoff" ] ~docv:"FRAC" ~doc)
    in
    let min_objects_arg =
      let doc = "Ignore sites with fewer than $(docv) allocated objects." in
      Arg.(value & opt int Harness.Runs.min_objects
           & info [ "min-objects" ] ~docv:"N" ~doc)
    in
    let no_elide_arg =
      let doc = "Do not derive the scan-free (elidable) subset from the \
                 traced points-into graph." in
      Arg.(value & flag & info [ "no-elide" ] ~doc)
    in
    let merge_arg =
      let doc = "Merge this trace into $(i,TRACE) before deriving the \
                 policy (repeatable).  Per-site survival and allocation \
                 tallies sum, so the cutoff applies to the \
                 allocation-weighted union of the runs — one policy \
                 serving several profiled workload mixes." in
      Arg.(value & opt_all file [] & info [ "merge" ] ~docv:"TRACE2" ~doc)
    in
    let run path out cutoff min_objects no_elide merges =
      let p =
        List.fold_left
          (fun acc path2 -> Obs.Profile.merge acc (analyze path2))
          (analyze path) merges
      in
      let policy =
        Gsc.Policy_file.of_profile p ~cutoff ~min_objects
          ~scan_elision:(not no_elide)
      in
      Gsc.Policy_file.save policy out;
      (* Reload and verify: the file we just wrote must load back to the
         policy we derived, so a later `run --policy` sees the same
         decisions. *)
      (match Gsc.Policy_file.load out with
       | Ok p' when p' = policy -> ()
       | Ok _ ->
         Printf.eprintf "%s: reloaded policy differs from the one written\n"
           out;
         exit 1
       | Error msg ->
         Printf.eprintf "%s: written policy fails to load: %s\n" out msg;
         exit 1);
      Printf.printf
        "%s: %d pretenured site(s), %d scan-free (cutoff %.2f, min %d \
         objects%s)\n"
        out
        (List.length policy.Gsc.Policy_file.sites)
        (List.length policy.Gsc.Policy_file.no_scan)
        cutoff min_objects
        (match merges with
         | [] -> ""
         | _ -> Printf.sprintf ", %d traces merged" (1 + List.length merges))
    in
    Cmd.v
      (Cmd.info "emit-policy"
         ~doc:
           "Derive a pretenuring policy from one or more traces \
            ($(b,--merge)) and write it as a versioned policy.json for \
            $(b,run --policy)")
      Term.(
        const run $ trace_arg $ out_arg $ cutoff_arg $ min_objects_arg
        $ no_elide_arg $ merge_arg)
  in
  Cmd.group
    (Cmd.info "gc-profile"
       ~doc:
         "Offline trace analysis: survival curves, MMU, pause percentiles, \
          heap census — and policy emission that closes the pretenure loop")
    [ report_cmd; emit_policy_cmd ]

(* --- gc-serve --- *)

let gc_serve_cmd =
  let tenants_arg =
    let doc = "Number of tenants (profiles cycle arena, cache, archive)." in
    Arg.(value & opt int 6 & info [ "tenants" ] ~docv:"N" ~doc)
  in
  let sessions_arg =
    let doc = "Sessions per tenant." in
    Arg.(value & opt int 256 & info [ "sessions" ] ~docv:"N" ~doc)
  in
  let requests_arg =
    let doc = "Total requests to serve." in
    Arg.(value & opt int 20_000 & info [ "requests" ] ~docv:"N" ~doc)
  in
  let rate_arg =
    let doc = "Open-loop arrival rate in requests per second (virtual \
               schedule; see docs/SLO.md)." in
    Arg.(value & opt float 2_000. & info [ "rate" ] ~docv:"RPS" ~doc)
  in
  let seed_arg =
    let doc = "Request-stream seed (the checksum is a pure function of \
               it)." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let budget_arg =
    let doc = "Memory budget in bytes." in
    Arg.(value & opt int (32 * 1024 * 1024)
         & info [ "budget" ] ~docv:"BYTES" ~doc)
  in
  let nursery_kb_arg =
    let doc = "Nursery cap in KB." in
    Arg.(value & opt int 512 & info [ "nursery-kb" ] ~docv:"KB" ~doc)
  in
  let policy_arg =
    let doc = "Pretenure from this policy file (see `repro gc-profile \
               emit-policy`)." in
    Arg.(value & opt (some file) None & info [ "policy" ] ~docv:"FILE" ~doc)
  in
  let major_kind_arg =
    let doc = "Tenured collection strategy: copying or mark_sweep \
               (mark_sweep requires --parallelism 1)." in
    Arg.(value & opt major_kind_conv Collectors.Generational.Copying
         & info [ "major-kind" ] ~docv:"KIND" ~doc)
  in
  let tenured_backend_arg =
    let doc = "Placement policy for pretenured allocations (and, under \
               mark_sweep, promotions): bump, free_list or size_class." in
    Arg.(value & opt backend_conv Alloc.Backend.Bump
         & info [ "tenured-backend" ] ~docv:"BACKEND" ~doc)
  in
  let los_backend_arg =
    let doc = "Placement policy for the large-object space: bump, \
               free_list or size_class." in
    Arg.(value & opt backend_conv Alloc.Backend.Free_list
         & info [ "los-backend" ] ~docv:"BACKEND" ~doc)
  in
  let eager_evac_arg =
    let doc = "Hierarchical (eager-child) evacuation in the copy engines \
               (placement only; statistics unchanged)." in
    Arg.(value & flag & info [ "eager-evac" ] ~doc)
  in
  let parallelism_arg =
    let doc = "Drain domains for the copying fixpoint (1 = sequential \
               engine).  Incompatible with --major-kind mark_sweep." in
    Arg.(value & opt int 1 & info [ "parallelism"; "p" ] ~docv:"N" ~doc)
  in
  let mode_arg =
    let modes =
      [ ("virtual", Collectors.Par_drain.Virtual);
        ("real", Collectors.Par_drain.Real) ]
    in
    let doc = "Parallel-drain execution engine: $(b,virtual) \
               (deterministic scheduler, simulated clocks) or $(b,real) \
               (OCaml domains).  Only meaningful with --parallelism > 1." in
    Arg.(value & opt (enum modes) Collectors.Par_drain.Virtual
         & info [ "parallelism-mode" ] ~docv:"MODE" ~doc)
  in
  let adaptive_arg =
    let doc = "Run the adaptive control plane: online nursery resizing, \
               tenure-threshold tuning, dynamic pretenuring and \
               (mark_sweep) compaction scheduling, each decision traced \
               as a $(b,policy_update) record (docs/ADAPTIVE.md).  With \
               $(b,--trace), the run ends with an offline replay that \
               must re-derive every decision bit-for-bit (exit 1 \
               otherwise)." in
    Arg.(value & flag & info [ "adaptive" ] ~doc)
  in
  let phase_shift_arg =
    let doc = "Rotate every tenant to the next lifetime profile from \
               request $(docv) on (0 = never) — the behaviour change the \
               adaptive plane is measured against.  The request stream \
               stays a pure function of the seed, so checksums compare \
               across configurations at equal shift." in
    Arg.(value & opt int 0 & info [ "phase-shift" ] ~docv:"REQ" ~doc)
  in
  let min_policy_updates_arg =
    let doc = "Exit 1 unless the adaptive replay matched at least \
               $(docv) policy updates (smoke-test hook).  Needs \
               $(b,--adaptive) and $(b,--trace)." in
    Arg.(value & opt int 0 & info [ "min-policy-updates" ] ~docv:"N" ~doc)
  in
  let header_layout_arg =
    let layouts =
      [ ("classic", Mem.Header.Classic); ("packed", Mem.Header.Packed) ]
    in
    let doc = "Object-header layout: classic or packed." in
    Arg.(value & opt (enum layouts) Mem.Header.Classic
         & info [ "header-layout" ] ~docv:"LAYOUT" ~doc)
  in
  let max_pause_arg =
    let doc = "SLO: every pause must stay within $(docv) microseconds." in
    Arg.(value & opt (some float) None
         & info [ "max-pause-us" ] ~docv:"US" ~doc)
  in
  let p99_arg =
    let doc = "SLO: running p99 pause bound in microseconds." in
    Arg.(value & opt (some float) None & info [ "p99-us" ] ~docv:"US" ~doc)
  in
  let p999_arg =
    let doc = "SLO: running p99.9 pause bound in microseconds." in
    Arg.(value & opt (some float) None & info [ "p999-us" ] ~docv:"US" ~doc)
  in
  let min_mmu_arg =
    let doc = "SLO: minimum mutator utilisation over trailing \
               --mmu-window-us windows, in [0,1]." in
    Arg.(value & opt (some float) None & info [ "min-mmu" ] ~docv:"FRAC" ~doc)
  in
  let mmu_window_arg =
    let doc = "The MMU window for --min-mmu and the report." in
    Arg.(value & opt float 10_000. & info [ "mmu-window-us" ] ~docv:"US" ~doc)
  in
  let flight_arg =
    let doc = "Flight-recorder ring capacity in events." in
    Arg.(value & opt int 256 & info [ "flight" ] ~docv:"N" ~doc)
  in
  let flight_dump_arg =
    let doc = "Dump the ring (schema-valid JSONL) here on the first SLO \
               breach." in
    Arg.(value & opt string "flight.dump.jsonl"
         & info [ "flight-dump" ] ~docv:"FILE" ~doc)
  in
  let trace_file_arg =
    let doc = "Write a full JSONL trace to $(docv) instead of flight-only \
               recording (full data-plane accounting; slower)." in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  (* The dump must be schema-valid and must contain the breaching
     collection: an slo_breach record and, riding just before it in the
     ring, the gc_end it was stamped behind (same collection ordinal). *)
  let validate_dump path =
    match Obs.Schema.validate_file path with
    | Error msg -> Error msg
    | Ok _ ->
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let gcs_of ev =
        List.filter_map
          (fun line ->
            match Obs.Json.parse_opt line with
            | Some j ->
              (match Obs.Json.member "ev" j, Obs.Json.member "gc" j with
               | Some (Obs.Json.Str e), Some (Obs.Json.Num g) when e = ev ->
                 Some (int_of_float g)
               | _ -> None)
            | None -> None)
          !lines
      in
      let breach_gcs = gcs_of "slo_breach" in
      let end_gcs = gcs_of "gc_end" in
      if breach_gcs = [] then Error "dump contains no slo_breach record"
      else if List.exists (fun g -> List.mem g end_gcs) breach_gcs then Ok ()
      else Error "dump's slo_breach has no matching gc_end"
  in
  let run tenants sessions requests rate seed budget nursery_kb policy
      major_kind header_layout tenured_backend los_backend eager_evac
      parallelism parallelism_mode adaptive phase_shift min_policy_updates
      max_pause p99 p999 min_mmu mmu_window flight_cap flight_dump
      trace_file =
    if tenants < 1 || sessions < 1 || requests < 1 || rate <= 0.
       || flight_cap < 1 then begin
      prerr_endline
        "gc-serve: --tenants, --sessions, --requests, --rate and --flight \
         must be positive";
      exit 2
    end;
    if phase_shift < 0 then begin
      prerr_endline "gc-serve: --phase-shift must be non-negative";
      exit 2
    end;
    validate_collector_knobs "gc-serve" ~parallelism ~major_kind header_layout;
    if min_policy_updates > 0 && (not adaptive || trace_file = None)
    then begin
      prerr_endline
        "gc-serve: --min-policy-updates needs --adaptive and --trace FILE";
      exit 2
    end;
    let base =
      match policy with
      | None -> Gsc.Config.generational ~budget_bytes:budget
      | Some path ->
        (match Gsc.Config.with_policy_file ~budget_bytes:budget path with
         | Ok cfg -> cfg
         | Error msg ->
           prerr_endline ("policy " ^ path ^ ": " ^ msg);
           exit 1)
    in
    let target =
      { Obs.Slo.max_pause_us = max_pause; p99_us = p99; p999_us = p999;
        min_mmu; mmu_window_us = mmu_window }
    in
    let cfg =
      { base with
        Gsc.Config.nursery_bytes_max = nursery_kb * 1024;
        major_kind; header_layout; slo = target;
        tenured_backend; los_backend; eager_evac; parallelism;
        parallelism_mode; adaptive;
        global_slots = max base.Gsc.Config.global_slots tenants }
    in
    let metrics = Obs.Metrics.create () in
    let fl = Obs.Flight.create ~capacity:flight_cap () in
    let flight_mode = trace_file = None in
    let dumped = ref None in
    let slo =
      Obs.Slo.create
        ~on_breach:(fun br ->
          if flight_mode && !dumped = None then
            dumped := Some (br, Obs.Flight.dump_to_file fl flight_dump))
        cfg.Gsc.Config.slo
    in
    let serve () =
      let rt = Gsc.Runtime.create cfg in
      Fun.protect ~finally:(fun () -> Gsc.Runtime.destroy rt) @@ fun () ->
      Workloads.Serve.run rt ~slo ~phase_shift ~tenants ~sessions ~requests
        ~rate_rps:rate ~seed ()
    in
    let rep =
      match trace_file with
      | Some path -> Obs.Trace.with_file ~metrics ~slo path serve
      | None -> Obs.Trace.with_ring ~metrics ~slo fl serve
    in
    Printf.printf
      "gc-serve: %d tenants x %d sessions, %d requests @ %.0f req/s \
       (seed %d%s)\n"
      tenants sessions requests rate seed
      (if phase_shift > 0 then
         Printf.sprintf ", phase shift @%d" phase_shift
       else "");
    Printf.printf
      "config: %s, major=%s, layout=%s, nursery=%dKB, budget=%s%s\n\n"
      (Gsc.Config.name cfg)
      (Collectors.Generational.major_kind_name major_kind)
      (match header_layout with
       | Mem.Header.Classic -> "classic"
       | Mem.Header.Packed -> "packed")
      nursery_kb
      (Support.Units.bytes budget)
      (if adaptive then ", adaptive" else "");
    Printf.printf
      "sustained %.0f req/s (offered %.0f); horizon %.1f ms; checksum \
       %08x\n\n"
      rep.Workloads.Serve.sustained_rps rep.Workloads.Serve.offered_rps
      (rep.Workloads.Serve.horizon_us /. 1e3)
      rep.Workloads.Serve.checksum;
    Printf.printf "%-7s %-8s %9s %11s %11s %13s %8s %9s %12s\n" "tenant"
      "kind" "requests" "p99_lat_us" "p999_lat_us" "max_lat_us" "pauses"
      "pause_us" "p99_pause_us";
    List.iter
      (fun (t : Workloads.Serve.tenant_report) ->
        Printf.printf "%-7d %-8s %9d %11.1f %11.1f %13.1f %8d %9.0f %12.1f\n"
          t.Workloads.Serve.tenant t.Workloads.Serve.kind
          t.Workloads.Serve.requests t.Workloads.Serve.p99_lat_us
          t.Workloads.Serve.p999_lat_us t.Workloads.Serve.max_lat_us
          t.Workloads.Serve.pauses t.Workloads.Serve.pause_us
          t.Workloads.Serve.p99_pause_us)
      rep.Workloads.Serve.tenants;
    print_newline ();
    let pauses = Obs.Slo.pause_count slo in
    Printf.printf
      "pauses: %d; online p99 %.1f us, p99.9 %.1f us; MMU@%.0fus %.1f%%\n"
      pauses
      (Obs.Slo.percentile slo 0.99)
      (Obs.Slo.percentile slo 0.999)
      mmu_window
      (100. *. Obs.Slo.mmu slo ~window_us:mmu_window);
    (match Obs.Slo.breaches slo with
     | [] -> print_endline "slo: no breaches"
     | per_rule ->
       Printf.printf "slo: %d breach(es) (%s)\n"
         (Obs.Slo.breach_total slo)
         (String.concat ", "
            (List.map
               (fun (r, n) -> Printf.sprintf "%s:%d" r n)
               per_rule)));
    (match !dumped with
     | None ->
       if flight_mode then
         Printf.printf "flight: no dump (ring holds %d of %d events)\n"
           (Obs.Flight.length fl) (Obs.Flight.capacity fl)
     | Some ((br : Obs.Slo.breach), n) ->
       Printf.printf "flight: %d events dumped to %s on first breach (%s)\n"
         n flight_dump br.Obs.Slo.rule;
       (match validate_dump flight_dump with
        | Ok () -> ()
        | Error msg ->
          Printf.eprintf "flight dump %s invalid: %s\n" flight_dump msg;
          exit 1));
    (match trace_file with
     | None -> ()
     | Some path ->
       (match Obs.Schema.validate_file path with
        | Ok n ->
          Printf.printf "trace: %d records in %s (schema-valid)\n" n path
        | Error msg ->
          Printf.eprintf "trace %s failed schema validation: %s\n" path msg;
          exit 1));
    (* Adaptive self-check: the trace must replay to the decisions the
       online controller took — same seeding as the collector's own
       controller ([Generational.adaptive_setup] on the exact config the
       runtime resolved), so any divergence is a real determinism bug,
       not a harness mismatch. *)
    match trace_file with
    | Some path when adaptive ->
      let gcfg = Gsc.Config.generational_config cfg in
      let params, nursery_w = Collectors.Generational.adaptive_setup gcfg in
      (match
         Control.Replay.of_file params ~nursery_limit_w:nursery_w
           ~tenure_threshold:gcfg.Collectors.Generational.tenure_threshold
           ~pretenured:gcfg.Collectors.Generational.pretenured_init path
       with
       | Error msg ->
         Printf.eprintf "adaptive replay of %s failed: %s\n" path msg;
         exit 1
       | Ok derived ->
         let traced =
           match Obs.Profile.of_file path with
           | Ok p -> p.Obs.Profile.policy_updates
           | Error msg ->
             Printf.eprintf "%s: %s\n" path msg;
             exit 1
         in
         (match Control.Replay.verify ~derived ~traced with
          | Error msg ->
            Printf.eprintf "adaptive replay diverged: %s\n" msg;
            exit 1
          | Ok n ->
            Printf.printf
              "adaptive: %d policy update(s); offline replay re-derives \
               every decision\n"
              n;
            if n < min_policy_updates then begin
              Printf.eprintf
                "adaptive: expected at least %d policy update(s), got %d\n"
                min_policy_updates n;
              exit 1
            end))
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "gc-serve"
       ~doc:
         "Run the open-loop multi-tenant server workload with the online \
          SLO monitor and flight recorder attached, and print the SLO \
          report (per-tenant latency and pause percentiles, online MMU, \
          breach counts, sustained request rate)")
    Term.(
      const run $ tenants_arg $ sessions_arg $ requests_arg $ rate_arg
      $ seed_arg $ budget_arg $ nursery_kb_arg $ policy_arg $ major_kind_arg
      $ header_layout_arg $ tenured_backend_arg $ los_backend_arg
      $ eager_evac_arg $ parallelism_arg $ mode_arg $ adaptive_arg
      $ phase_shift_arg $ min_policy_updates_arg $ max_pause_arg $ p99_arg
      $ p999_arg $ min_mmu_arg $ mmu_window_arg $ flight_arg
      $ flight_dump_arg $ trace_file_arg)

let () =
  let info =
    Cmd.info "repro" ~version:"1.0"
      ~doc:
        "Reproduction of Cheng, Harper & Lee, \"Generational Stack \
         Collection and Profile-Driven Pretenuring\" (PLDI 1998)"
  in
  let code =
    try
      Cmd.eval ~catch:false
        (Cmd.group info
           [ list_cmd; tables_cmd; figure2_cmd; ablation_cmd; profile_cmd;
             calibrate_cmd; check_cmd; run_cmd; gc_trace_cmd; gc_profile_cmd;
             gc_serve_cmd ])
    with
    | Collectors.Budget.Exhausted msg ->
      Printf.eprintf "repro: memory budget exhausted: %s\n" msg;
      1
    | e ->
      Printf.eprintf "repro: internal error, uncaught exception:\n%s\n%s"
        (Printexc.to_string e) (Printexc.get_backtrace ());
      Cmd.Exit.internal_error
  in
  (* Unified exit conventions (docs/SLO.md): 0 = success, 1 = invalid
     data (schema-invalid trace, failing claim, bad policy, a memory
     budget too small for the run), 2 = usage error.  Cmdliner reports
     CLI errors as 124; fold them into 2. *)
  exit (if code = Cmd.Exit.cli_error then 2 else code)
