(* Cross-commit pins on the collection cycle.

   1. Digests: for each configuration below, one traced run of a real
      workload is reduced to two MD5 digests — the normalized trace
      (every record with its wall-clock fields [t_us]/[pause_us]/[dur_us]
      dropped, in emission order) and the deterministic [Gc_stats] work
      counters.  The expected digests were recorded before the
      collectors were folded into one shared cycle skeleton (the last
      configuration: before the parallel drain's virtual and real
      engines became one); a refactor of the collection code must
      reproduce them exactly.  A deliberate
      behaviour change re-records them (the failure message prints the
      new values).

   2. The span/pause identity: in every collection the top-level phase
      spans are exactly the set the collection's kind owns, and their
      durations sum to at most the collection's pause (up to the
      trace's 0.1 us rounding).  The per-domain
      [copy.dN] spans report virtual drain time and are not part of the
      identity. *)

(* life majors repeatedly, peg drives the write barrier, pia pretenures
   (the region scan) and fills the tenured space with garbage *)
let workloads =
  List.map
    (fun (name, factor) ->
      let w = Workloads.Registry.find name in
      (w, Harness.Runs.scale ~factor w))
    [ ("life", 0.25); ("peg", 0.1); ("pia", 0.25) ]

type case = {
  name : string;
  semi : bool;
  tweak : Gsc.Config.t -> Gsc.Config.t;
  full_at_end : bool;   (* force a full collection after the workload *)
}

let gen ?(full_at_end = true) name tweak = { name; semi = false; tweak; full_at_end }

let cases =
  let open Gsc.Config in
  [ { name = "semispace"; semi = true; tweak = Fun.id; full_at_end = true };
    gen ~full_at_end:false "gen ssb" Fun.id;
    gen ~full_at_end:false "gen cards tenure 2" (fun c ->
      { c with barrier = Collectors.Generational.Barrier_cards; tenure_threshold = 2 });
    gen ~full_at_end:false "gen remset" (fun c ->
      { c with barrier = Collectors.Generational.Barrier_remset });
    gen "forced copying major" Fun.id;
    gen "mark_sweep free_list" (fun c ->
      { c with
        major_kind = Collectors.Generational.Mark_sweep;
        tenured_backend = Alloc.Backend.Free_list });
    gen "mark_sweep bump" (fun c ->
      { c with major_kind = Collectors.Generational.Mark_sweep });
    gen "p=2 virtual" (fun c -> { c with parallelism = 2 });
    gen "packed + eager" (fun c ->
      { c with header_layout = Mem.Header.Packed; eager_evac = true });
    gen "census on" (fun c -> { c with census_period = 3 });
    (* card packets and eager evacuation through the parallel drain *)
    gen "p=2 virtual cards + packed + eager" (fun c ->
      { c with
        parallelism = 2;
        barrier = Collectors.Generational.Barrier_cards;
        header_layout = Mem.Header.Packed;
        eager_evac = true }) ]

let config_of c (w, scale) =
  (* the pretenure policy comes from a profiled run: build configs
     before tracing starts so that run stays out of the buffer *)
  c.tweak
    (Harness.Runs.config_for ~workload:w ~scale ~k:1.5
       ~technique:(if c.semi then Harness.Runs.Semi else Harness.Runs.Pretenure))

(* one traced run per workload: the parsed records and the final stats *)
let traced_runs c =
  List.map
    (fun ((w, scale) as ws) ->
      let cfg = config_of c ws in
      let buf = Buffer.create (1 lsl 16) in
      let stats =
        Obs.Trace.with_buffer buf (fun () ->
            let rt = Gsc.Runtime.create cfg in
            Fun.protect ~finally:(fun () -> Gsc.Runtime.destroy rt) @@ fun () ->
            w.Workloads.Spec.run rt ~scale;
            if c.full_at_end then Gsc.Runtime.collect_now rt;
            Gsc.Runtime.stats rt)
      in
      let lines =
        List.filter (fun l -> l <> "")
          (String.split_on_char '\n' (Buffer.contents buf))
      in
      (cfg, List.map Obs.Json.parse lines, stats))
    workloads

let timing_field k = k = "t_us" || k = "pause_us" || k = "dur_us"

let normalize = function
  | Obs.Json.Obj members ->
    Obs.Json.to_string
      (Obs.Json.Obj (List.filter (fun (k, _) -> not (timing_field k)) members))
  | j -> Obs.Json.to_string j

let work_counters (s : Collectors.Gc_stats.t) =
  let open Collectors.Gc_stats in
  [ s.minor_gcs; s.major_gcs; s.words_allocated; s.words_alloc_records;
    s.words_alloc_arrays; s.objects_allocated; s.words_copied;
    s.words_promoted; s.words_pretenured; s.words_region_scanned;
    s.words_region_skipped; s.words_los_freed; s.words_marked;
    s.words_swept_free; s.max_live_words; s.live_words_after_gc;
    s.mutator_ops; s.pointer_updates; s.barrier_entries_processed;
    s.frames_decoded; s.frames_reused; s.slots_decoded; s.roots_visited;
    s.depth_sum_at_gc; s.depth_max_at_gc; s.new_frames_sum;
    s.marker_stubs_installed; s.marker_stub_hits; s.exception_unwinds;
    s.tenured_free_words; s.tenured_free_blocks; s.tenured_largest_hole;
    s.los_free_words; s.los_free_blocks; s.los_largest_hole ]
  @ Array.to_list s.words_scanned_dom

let digest strings = Digest.to_hex (Digest.string (String.concat "\n" strings))

(* (config, trace digest, counters digest), recorded before the shared
   collection skeleton replaced the per-kind routines *)
let expected =
  [ ("semispace", "dbada3dd5c9576cf160a4f4038ad7cd0", "bdac15062c668d69ea6790fca0781054");
    ("gen ssb", "0f21582d8497a62ce5496581234d3045", "836d52ba57ff16e33415d32b9591f639");
    ("gen cards tenure 2", "f87d2bf24b8f6f161200df40e5219d5a", "0d04cab309d28c1b3d888474521b8c54");
    ("gen remset", "ab48dfc374fdae9a8a655a3fa2692c0e", "c2aff8627ce9a3ff79c6b28258fdeb62");
    ("forced copying major", "6a585b30a0d8d05a752f24262e1f33f5", "da4c3c50d79fc59bad6e2891d84fb21f");
    ("mark_sweep free_list", "e6811d77a3dcaaf6518463830cf49b53", "8ce0c6b5ced8d15f33caf282f561b5f6");
    ("mark_sweep bump", "ba51a8e6f86c6304679d123ea224bdab", "6dbd4419b2063aaa50afbf8dde1f66f5");
    ("p=2 virtual", "733ac95bedc5ac55db6c8e6ca7676f4f", "91d3fde38a739f5b620aed5707e6613d");
    ("packed + eager", "d9017f54d80d055b8acd2bfb16334074", "e699817781e0738344fa2b2041ac9701");
    ("census on", "f951952fa673034bd62ae95acc003ff7", "da4c3c50d79fc59bad6e2891d84fb21f");
    ("p=2 virtual cards + packed + eager", "d180acf2087e8b4233cdfec20609c24f", "7028043169a1ca2092ab58a185c31963") ]

let runs = lazy (List.map (fun c -> (c, traced_runs c)) cases)

let digests_match () =
  let bad =
    List.filter_map
      (fun (c, runs) ->
        let tr =
          digest (List.concat_map (fun (_, events, _) -> List.map normalize events) runs)
        in
        let ct =
          digest
            (List.concat_map
               (fun (_, _, stats) -> List.map string_of_int (work_counters stats))
               runs)
        in
        let _, tr0, ct0 = List.find (fun (n, _, _) -> n = c.name) expected in
        if tr = tr0 && ct = ct0 then None
        else Some (Printf.sprintf "    (%S, %S, %S);" c.name tr ct))
      (Lazy.force runs)
  in
  if bad <> [] then
    Alcotest.failf "digests changed; new values:\n%s" (String.concat "\n" bad)

(* --- the span/pause identity --- *)

let str k j =
  match Obs.Json.member k j with Some (Obs.Json.Str s) -> s | _ -> ""

let num k j =
  match Obs.Json.member k j with Some (Obs.Json.Num f) -> f | _ -> nan

module S = Set.Make (String)

let spans_for ~kind ~profiling =
  let sweep = if profiling then [ "profile_sweep" ] else [] in
  List.map S.of_list
    (match kind with
     | "minor" -> [ [ "roots"; "barrier"; "region_scan"; "copy" ] @ sweep ]
     | "major" ->
       [ [ "roots"; "copy"; "los_sweep" ] @ sweep;
         [ "roots"; "mark"; "sweep"; "los_sweep" ] ]
     | "semi" -> [ [ "roots"; "copy" ] @ sweep ]
     | k -> Alcotest.failf "unknown collection kind %s" k)

let mark_sweep_set = S.of_list [ "roots"; "mark"; "sweep"; "los_sweep" ]

let span_identity () =
  List.iter
    (fun (c, runs) ->
      let majors = ref [] and gcs = ref 0 in
      let check_gc cfg ~kind ~pause ~spans =
        incr gcs;
        let names = S.of_list (List.map fst spans) in
        let ok = spans_for ~kind ~profiling:cfg.Gsc.Config.profiling in
        if not (List.exists (S.equal names) ok) then
          Alcotest.failf "%s: %s collection has spans {%s}" c.name kind
            (String.concat ", " (S.elements names));
        if kind = "major" then majors := names :: !majors;
        let sum = List.fold_left (fun a (_, d) -> a +. d) 0. spans in
        (* the trace writes microseconds to one decimal: each of the
           spans and the pause may be off by half a step *)
        let slack = 0.01 +. (0.05 *. float_of_int (List.length spans + 1)) in
        if not (sum <= pause +. slack) then
          Alcotest.failf "%s: %s spans sum to %.3f us > pause %.3f us" c.name
            kind sum pause
      in
      List.iter
        (fun (cfg, events, _) ->
          let rec walk kind spans = function
            | [] -> if kind <> None then Alcotest.failf "%s: unterminated gc" c.name
            | e :: rest ->
              (match str "ev" e, kind with
               | "gc_begin", None -> walk (Some (str "kind" e)) [] rest
               | "gc_end", Some k ->
                 check_gc cfg ~kind:k ~pause:(num "pause_us" e) ~spans;
                 walk None [] rest
               | "phase", Some _ ->
                 let name = str "name" e in
                 let top =
                   not (String.length name > 5 && String.sub name 0 5 = "copy.")
                 in
                 walk kind (if top then (name, num "dur_us" e) :: spans else spans)
                   rest
               | ("gc_begin" | "gc_end" | "phase"), _ ->
                 Alcotest.failf "%s: unbalanced gc_begin/gc_end" c.name
               | _ -> walk kind spans rest)
          in
          walk None [] events)
        runs;
      if !gcs = 0 then Alcotest.failf "%s: no collections" c.name;
      let cfg, _, _ = List.hd runs in
      let mark_sweep =
        cfg.Gsc.Config.major_kind = Collectors.Generational.Mark_sweep
      in
      let ms = List.filter (S.equal mark_sweep_set) !majors in
      if (not mark_sweep) && ms <> [] then
        Alcotest.failf "%s: mark-sweep major under the copying major" c.name;
      if mark_sweep && ms = [] then
        Alcotest.failf "%s: no mark-sweep major ran" c.name;
      (* bump cannot reuse swept holes: its reclamation runs through the
         copying compaction fallback *)
      if mark_sweep && cfg.Gsc.Config.tenured_backend = Alloc.Backend.Bump
         && List.length ms = List.length !majors
      then Alcotest.failf "%s: compaction fallback never ran" c.name)
    (Lazy.force runs)

let () =
  Alcotest.run "trace_pin"
    [ ( "cycle",
        [ Alcotest.test_case "trace and counter digests" `Quick digests_match;
          Alcotest.test_case "span/pause identity" `Quick span_identity ] ) ]
