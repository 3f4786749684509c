(* Every workload self-verifies its computed answer against a native
   mirror, so "run to completion without raising" is a real correctness
   check.  Each workload runs under all four paper configurations at a
   reduced scale; a final pass checks the simulated heap. *)

module R = Gsc.Runtime

let small_scale (w : Workloads.Spec.t) =
  match w.Workloads.Spec.name with
  | "checksum" -> 3
  | "color" -> 60
  | "fft" -> 8
  | "grobner" -> 2
  | "knuth-bendix" -> 4
  | "lexgen" -> 6
  | "life" -> 16
  | "nqueen" -> 7
  | "peg" -> 1200
  | "pia" -> 2
  | "simple" -> 6
  | _ -> 1

(* a calibration-sized budget: generous, so every workload fits *)
let budget = 8 * 1024 * 1024

let configs =
  [ ("semi", Gsc.Config.semispace ~budget_bytes:budget);
    ("gen", Gsc.Config.generational ~budget_bytes:budget);
    ("gen+markers", Gsc.Config.with_markers ~budget_bytes:budget);
    ( "gen+profiled",
      { (Gsc.Config.with_markers ~budget_bytes:budget) with
        Gsc.Config.profiling = true } ) ]

let run_one (w : Workloads.Spec.t) (cfg_name, cfg) () =
  let rt = R.create cfg in
  Fun.protect ~finally:(fun () -> R.destroy rt) @@ fun () ->
  w.Workloads.Spec.run rt ~scale:(small_scale w);
  ignore (R.check_heap rt : int);
  let stats = R.stats rt in
  Alcotest.(check bool)
    (Printf.sprintf "%s/%s: allocated something" w.Workloads.Spec.name cfg_name)
    true
    (stats.Collectors.Gc_stats.words_allocated > 0)

let suite_for w =
  ( w.Workloads.Spec.name,
    List.map
      (fun (cfg_name, cfg) ->
        Alcotest.test_case cfg_name `Quick (run_one w (cfg_name, cfg)))
      configs )

let tight_budget_case () =
  (* workloads must also survive a small k * Min-style budget; use life,
     whose live set is tiny *)
  let cfg = Gsc.Config.generational ~budget_bytes:(64 * 1024) in
  let rt = R.create cfg in
  Fun.protect ~finally:(fun () -> R.destroy rt) @@ fun () ->
  (Workloads.Registry.find "life").Workloads.Spec.run rt ~scale:40;
  let stats = R.stats rt in
  Alcotest.(check bool) "many gcs under a tight budget" true
    (Collectors.Gc_stats.gcs stats > 5)

let determinism_case () =
  (* the same workload under the same configuration must produce
     bit-identical collector statistics — the property the simulated
     clock rests on *)
  let w = Workloads.Registry.find "grobner" in
  let run () =
    let rt = R.create (Gsc.Config.generational ~budget_bytes:(512 * 1024)) in
    Fun.protect ~finally:(fun () -> R.destroy rt) @@ fun () ->
    w.Workloads.Spec.run rt ~scale:3;
    let s = R.stats rt in
    ( s.Collectors.Gc_stats.words_allocated,
      s.Collectors.Gc_stats.words_copied,
      Collectors.Gc_stats.gcs s,
      s.Collectors.Gc_stats.frames_decoded )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical statistics" true (a = b)

let nqueen_all_sizes () =
  (* the solution counts for n = 5..9 (n = 10 runs in the main suite) *)
  List.iter
    (fun n ->
      let rt = R.create (Gsc.Config.generational ~budget_bytes:(2 * 1024 * 1024)) in
      Fun.protect ~finally:(fun () -> R.destroy rt) @@ fun () ->
      (Workloads.Registry.find "nqueen").Workloads.Spec.run rt ~scale:n)
    [ 5; 6; 7; 8; 9 ]

(* every workload passes its self-check at the smallest scale it
   accepts, which is where `repro --factor` lands for a tiny factor *)
let smallest_scale () =
  List.iter
    (fun (w : Workloads.Spec.t) ->
      let rt = R.create (Gsc.Config.with_markers ~budget_bytes:budget) in
      Fun.protect ~finally:(fun () -> R.destroy rt) @@ fun () ->
      w.Workloads.Spec.run rt ~scale:(fst w.Workloads.Spec.scale_range);
      ignore (R.check_heap rt : int))
    Workloads.Registry.all

let color_small_paths () =
  (* short paths have fewer colourings (3 * 2^(n-1)) than the cap (40n):
     the search ends without the escape for n <= 7 *)
  List.iter
    (fun n ->
      let rt = R.create (Gsc.Config.with_markers ~budget_bytes:budget) in
      Fun.protect ~finally:(fun () -> R.destroy rt) @@ fun () ->
      (Workloads.Registry.find "color").Workloads.Spec.run rt ~scale:n)
    [ 2; 3; 4; 5; 6; 7; 8; 9 ]

(* serve keeps one latency and one tenant tag per request and a tag per
   attributed pause: every request and every pause of the run lands in
   exactly one tenant's report.  The small nursery makes over a hundred
   pauses, so the pause tags outgrow their first buffers. *)
let serve_accounting () =
  let tenants = 5 and requests = 3000 in
  let cfg =
    let base = Gsc.Config.generational ~budget_bytes:budget in
    { base with
      Gsc.Config.nursery_bytes_max = 8 * 1024;
      global_slots = max base.Gsc.Config.global_slots tenants }
  in
  let slo = Obs.Slo.create Obs.Slo.no_target in
  let rep =
    Obs.Trace.with_ring ~slo (Obs.Flight.create ~capacity:64 ()) (fun () ->
      let rt = R.create cfg in
      Fun.protect ~finally:(fun () -> R.destroy rt) @@ fun () ->
      Workloads.Serve.run rt ~slo ~tenants ~sessions:16 ~requests
        ~rate_rps:4000. ~seed:3 ())
  in
  let sum f =
    List.fold_left (fun acc t -> acc + f t) 0 rep.Workloads.Serve.tenants
  in
  Alcotest.(check int) "tenants" tenants (List.length rep.Workloads.Serve.tenants);
  Alcotest.(check int) "requests" requests
    (sum (fun t -> t.Workloads.Serve.requests));
  let pauses = Obs.Slo.pause_count slo in
  Alcotest.(check bool) "over a hundred pauses" true (pauses > 100);
  Alcotest.(check int) "pauses" pauses (sum (fun t -> t.Workloads.Serve.pauses));
  List.iter
    (fun (t : Workloads.Serve.tenant_report) ->
      Alcotest.(check bool)
        (Printf.sprintf "tenant %d ranks in order" t.tenant)
        true
        (t.requests > 0 && t.p50_lat_us <= t.p99_lat_us
         && t.p99_lat_us <= t.p999_lat_us && t.p999_lat_us <= t.max_lat_us
         && t.p99_pause_us <= t.p999_pause_us && t.pause_us > 0.))
    rep.Workloads.Serve.tenants

(* the record's widths bound a run: 16-bit tenant tags, one float array
   of latencies *)
let serve_limits () =
  let rt = R.create (Gsc.Config.generational ~budget_bytes:budget) in
  Fun.protect ~finally:(fun () -> R.destroy rt) @@ fun () ->
  let run ~tenants ~requests () =
    ignore
      (Workloads.Serve.run rt ~tenants ~sessions:1 ~requests ~rate_rps:1.
         ~seed:1 ()
        : Workloads.Serve.report)
  in
  Alcotest.check_raises "tenants"
    (Invalid_argument "Serve.run: tenants > 65_536")
    (run ~tenants:(Workloads.Serve.max_tenants + 1) ~requests:1);
  Alcotest.check_raises "requests"
    (Invalid_argument "Serve.run: requests > Sys.max_floatarray_length")
    (run ~tenants:1 ~requests:(Workloads.Serve.max_requests + 1));
  Alcotest.(check int) "max tenants" 65_536 Workloads.Serve.max_tenants

let () =
  Alcotest.run "workloads"
    (List.map suite_for Workloads.Registry.all
     @ [ ("budget", [ Alcotest.test_case "tight" `Quick tight_budget_case ]);
         ( "meta",
           [ Alcotest.test_case "determinism" `Quick determinism_case;
             Alcotest.test_case "nqueen sizes" `Quick nqueen_all_sizes;
             Alcotest.test_case "smallest accepted scale" `Quick
               smallest_scale;
             Alcotest.test_case "color below the cap" `Quick
               color_small_paths ] );
         ( "serve",
           [ Alcotest.test_case "every request and pause reported" `Quick
               serve_accounting;
             Alcotest.test_case "record limits" `Quick serve_limits ] ) ])
