(* Observability-layer tests: histogram bucketing edge cases, the JSON
   round trip, the metrics registry and its trace tap, schema
   validation, the golden emitter output (deterministic clock), and the
   stability of a real traced workload modulo timestamps. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

module H = Obs.Metrics.Histogram

(* --- Histogram bucketing --- *)

let hist_zero () =
  check_int "0 lands in bucket 0" 0 (H.bucket_index 0);
  check_bool "bucket 0 is {0}" true (H.bucket_bounds 0 = (0, 1));
  let h = H.create () in
  H.observe h 0;
  check_bool "observed zero" true (H.buckets h = [ (0, 1, 1) ]);
  check_int "total" 0 (H.total h);
  check_int "max" 0 (H.max_value h)

let hist_powers_of_two () =
  (* bucket i >= 1 holds [2^(i-1), 2^i): every power of two opens a new
     bucket, and the value just below it closes the previous one *)
  check_int "1" 1 (H.bucket_index 1);
  check_int "2" 2 (H.bucket_index 2);
  check_int "3" 2 (H.bucket_index 3);
  check_int "4" 3 (H.bucket_index 4);
  for k = 1 to 61 do
    check_int
      (Printf.sprintf "2^%d - 1" k)
      k
      (H.bucket_index ((1 lsl k) - 1));
    check_int (Printf.sprintf "2^%d" k) (k + 1) (H.bucket_index (1 lsl k))
  done

let hist_max_word () =
  check_int "max_int lands in the last bucket" (H.bucket_count - 1)
    (H.bucket_index max_int);
  let lo, hi = H.bucket_bounds (H.bucket_count - 1) in
  check_bool "last bucket covers max_int" true (lo <= max_int && hi = max_int);
  let h = H.create () in
  H.observe h max_int;
  check_int "count" 1 (H.count h);
  check_int "max" max_int (H.max_value h)

let hist_bounds_errors () =
  Alcotest.check_raises "negative bucket"
    (Invalid_argument "Histogram.bucket_bounds: no such bucket") (fun () ->
      ignore (H.bucket_bounds (-1)));
  Alcotest.check_raises "past the last bucket"
    (Invalid_argument "Histogram.bucket_bounds: no such bucket") (fun () ->
      ignore (H.bucket_bounds H.bucket_count))

let hist_negative_clamps () =
  let h = H.create () in
  H.observe h (-5);
  check_bool "clamped to zero" true (H.buckets h = [ (0, 1, 1) ]);
  check_int "total unaffected" 0 (H.total h)

let hist_bounds_prop =
  QCheck.Test.make ~name:"every value falls inside its bucket's bounds"
    ~count:500 QCheck.int (fun i ->
      let v = if i = min_int then max_int else abs i in
      let lo, hi = H.bucket_bounds (H.bucket_index v) in
      lo <= v && (v < hi || (hi = max_int && v = max_int)))

(* --- Json --- *)

let json_roundtrip () =
  let samples =
    [ "null"; "true"; "[1,2.5,\"x\"]"; "{\"a\":1,\"b\":[{}]}";
      "{\"s\":\"a\\\"b\\\\c\\n\"}"; "-3"; "[]" ]
  in
  List.iter
    (fun s ->
      let j = Obs.Json.parse s in
      check_bool s true (Obs.Json.parse (Obs.Json.to_string j) = j))
    samples

let json_rejects () =
  List.iter
    (fun s ->
      check_bool s true (Obs.Json.parse_opt s = None))
    [ ""; "{"; "[1,]"; "{\"a\"}"; "1 2"; "nul"; "\"open"; "{\"a\":}" ]

let json_member () =
  let j = Obs.Json.parse "{\"a\":1,\"b\":\"x\"}" in
  check_bool "present" true (Obs.Json.member "b" j = Some (Obs.Json.Str "x"));
  check_bool "absent" true (Obs.Json.member "c" j = None)

(* --- Metrics --- *)

let metrics_basics () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr m "c" 2;
  Obs.Metrics.incr m "c" 3;
  check_int "counter" 5 (Obs.Metrics.get_counter m "c");
  check_int "absent counter is 0" 0 (Obs.Metrics.get_counter m "nope");
  Obs.Metrics.set_gauge m "g" 7;
  check_bool "gauge" true (Obs.Metrics.get_gauge m "g" = Some 7);
  Obs.Metrics.observe m "h" 10;
  check_bool "histogram" true
    (match Obs.Metrics.get_histogram m "h" with
     | Some h -> H.count h = 1
     | None -> false);
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Metrics: c is a counter, not a gauge") (fun () ->
      Obs.Metrics.set_gauge m "c" 1)

let metrics_tap () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.record m
    (Obs.Event.Gc_begin { kind = "minor"; nursery_w = 10; tenured_w = 20; los_w = 0 });
  Obs.Metrics.record m
    (Obs.Event.Gc_end
       { kind = "minor"; pause_us = 120.; copied_w = 5; promoted_w = 5; live_w = 25 });
  Obs.Metrics.record m
    (Obs.Event.Phase { name = "copy"; dur_us = 80.; counters = [ ("copied_w", 5) ] });
  Obs.Metrics.record m
    (Obs.Event.Site_survival { site = 3; objects = 2; first_objects = 1; words = 6 });
  Obs.Metrics.record m (Obs.Event.Site_alloc { site = 3; objects = 5; words = 15 });
  Obs.Metrics.record m
    (Obs.Event.Census { site = 3; objects = 2; words = 6; ages = [ ("0", 2) ] });
  check_bool "nursery gauge" true (Obs.Metrics.get_gauge m "heap.nursery_w" = Some 10);
  check_int "gc.minor" 1 (Obs.Metrics.get_counter m "gc.minor");
  check_int "copied" 5 (Obs.Metrics.get_counter m "copied_w");
  check_int "phase time" 80 (Obs.Metrics.get_counter m "phase_us.copy");
  check_int "phase counter" 5 (Obs.Metrics.get_counter m "phase.copy.copied_w");
  check_int "site words" 6 (Obs.Metrics.get_counter m "site.3.survived_w");
  check_int "first survivals" 1 (Obs.Metrics.get_counter m "site.3.first_survivals");
  check_int "alloc objects" 5 (Obs.Metrics.get_counter m "site.3.alloc_objects");
  check_int "alloc words" 15 (Obs.Metrics.get_counter m "site.3.alloc_w");
  check_int "census records" 1 (Obs.Metrics.get_counter m "census.records");
  check_bool "pause histogram" true
    (match Obs.Metrics.get_histogram m "pause_us.minor" with
     | Some h -> H.count h = 1 && H.total h = 120
     | None -> false)

let metrics_phase_fractions () =
  (* sub-microsecond spans must not truncate to nothing: the counter is
     the floor of the exact sum, not the sum of per-span floors *)
  let m = Obs.Metrics.create () in
  for _ = 1 to 10 do
    Obs.Metrics.record m
      (Obs.Event.Phase { name = "copy"; dur_us = 0.5; counters = [] })
  done;
  check_int "ten 0.5 us phases" 5 (Obs.Metrics.get_counter m "phase_us.copy");
  Obs.Metrics.record m (Obs.Event.Phase { name = "roots"; dur_us = 0.75; counters = [] });
  check_int "remainders are per name" 5 (Obs.Metrics.get_counter m "phase_us.copy");
  check_int "one 0.75 us phase" 0 (Obs.Metrics.get_counter m "phase_us.roots")

let metrics_snapshot_parses () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr m "c" 1;
  Obs.Metrics.set_gauge m "g" 2;
  Obs.Metrics.observe m "h" 3;
  let j = Obs.Json.parse (Obs.Metrics.to_json m) in
  check_bool "counters member" true
    (Obs.Json.member "counters" j = Some (Obs.Json.Obj [ ("c", Obs.Json.Num 1.) ]));
  check_bool "histograms member present" true
    (match Obs.Json.member "histograms" j with
     | Some (Obs.Json.Obj [ ("h", _) ]) -> true
     | _ -> false)

(* --- Schema validation --- *)

let schema_rejects () =
  let bad =
    [ ("not an object", "[1]");
      ("missing envelope", "{\"ev\":\"unwind\",\"target_depth\":1}");
      ("missing version", "{\"seq\":0,\"t_us\":0.0,\"gc\":0,\"dom\":0,\"ev\":\"unwind\",\"target_depth\":1}");
      ("missing field",
       "{\"v\":6,\"seq\":0,\"t_us\":0.0,\"gc\":0,\"dom\":0,\"ev\":\"unwind\"}");
      ("unknown kind",
       "{\"v\":6,\"seq\":0,\"t_us\":0.0,\"gc\":0,\"dom\":0,\"ev\":\"mystery\"}");
      ("wrong type",
       "{\"v\":6,\"seq\":0,\"t_us\":0.0,\"gc\":0,\"dom\":0,\"ev\":\"unwind\",\"target_depth\":\"x\"}");
      ("unknown field",
       "{\"v\":6,\"seq\":0,\"t_us\":0.0,\"gc\":0,\"dom\":0,\"ev\":\"unwind\",\"target_depth\":1,\"z\":2}");
      ("negative int",
       "{\"v\":6,\"seq\":0,\"t_us\":0.0,\"gc\":0,\"dom\":0,\"ev\":\"unwind\",\"target_depth\":-1}");
      ("unparsable", "{") ]
  in
  List.iter
    (fun (what, line) ->
      check_bool what true
        (match Obs.Schema.validate_line line with
         | Error _ -> true
         | Ok () -> false))
    bad

let schema_version_gate () =
  let mk v =
    Printf.sprintf
      "{\"v\":%d,\"seq\":0,\"t_us\":0.0,\"gc\":0,\"dom\":0,\"ev\":\"unwind\",\"target_depth\":1}"
      v
  in
  (match Obs.Schema.validate_line (mk 6) with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "current version rejected: %s" msg);
  List.iter
    (fun v ->
      match Obs.Schema.validate_line (mk v) with
      | Ok () -> Alcotest.failf "version %d accepted" v
      | Error msg ->
        check_bool "names the foreign version" true
          (contains ~needle:(Printf.sprintf "version %d" v) msg);
        check_bool "names the supported version" true
          (contains ~needle:"version 6" msg))
    [ 2; 3; 4; 5; 7 ]

(* --- Golden emitter output --- *)

(* one microsecond per clock call: [enable] consumes t = 0 as the
   origin, so the n-th record is stamped n microseconds *)
let ticking_clock () =
  let c = ref 0. in
  fun () ->
    let v = !c in
    c := v +. 1e-6;
    v

let golden =
  String.concat "\n"
    [ {|{"v":6,"seq":0,"t_us":1.0,"gc":1,"dom":0,"ev":"gc_begin","kind":"minor","nursery_w":100,"tenured_w":200,"los_w":0}|};
      {|{"v":6,"seq":1,"t_us":2.0,"gc":1,"dom":0,"ev":"site_alloc","site":1,"objects":10,"words":30}|};
      {|{"v":6,"seq":2,"t_us":3.0,"gc":1,"dom":0,"ev":"phase","name":"roots","dur_us":12.5,"counters":{"roots":3}}|};
      {|{"v":6,"seq":3,"t_us":4.0,"gc":1,"dom":0,"ev":"stack_scan","mode":"minor","valid_prefix":2,"depth":5,"decoded":3,"reused":2,"slots":7,"roots":4}|};
      {|{"v":6,"seq":4,"t_us":5.0,"gc":1,"dom":0,"ev":"site_survival","site":1,"objects":4,"first_objects":3,"words":12}|};
      {|{"v":6,"seq":5,"t_us":6.0,"gc":1,"dom":0,"ev":"census","site":1,"objects":4,"words":12,"ages":{"0":1,"2-3":3}}|};
      {|{"v":6,"seq":6,"t_us":7.0,"gc":1,"dom":0,"ev":"gc_end","kind":"minor","pause_us":250.0,"copied_w":12,"promoted_w":12,"live_w":212}|};
      {|{"v":6,"seq":7,"t_us":8.0,"gc":1,"dom":0,"ev":"pretenure","site":2,"words":8}|};
      {|{"v":6,"seq":8,"t_us":9.0,"gc":1,"dom":0,"ev":"marker_place","installed":3,"depth":9}|};
      {|{"v":6,"seq":9,"t_us":10.0,"gc":1,"dom":0,"ev":"unwind","target_depth":4}|};
      {|{"v":6,"seq":10,"t_us":11.0,"gc":1,"dom":0,"ev":"slo_breach","rule":"max_pause","observed_us":250.0,"limit_us":100.0,"window_us":0.0}|};
      {|{"v":6,"seq":11,"t_us":12.0,"gc":1,"dom":0,"ev":"policy_update","knob":"pretenure_site:2","old":0,"new":1,"window":2,"signals":{"old_permille":875,"objects":64}}|};
      "" ]

let golden_emitter () =
  let buf = Buffer.create 1024 in
  Obs.Trace.with_buffer ~clock:(ticking_clock ()) buf (fun () ->
      Obs.Trace.gc_begin ~kind:"minor" ~nursery_w:100 ~tenured_w:200 ~los_w:0;
      Obs.Trace.site_alloc ~site:1 ~objects:10 ~words:30;
      Obs.Trace.phase ~name:"roots" ~dur_us:12.5 ~counters:[ ("roots", 3) ];
      Obs.Trace.stack_scan ~mode:"minor" ~valid_prefix:2 ~depth:5 ~decoded:3
        ~reused:2 ~slots:7 ~roots:4;
      Obs.Trace.site_survival ~site:1 ~objects:4 ~first_objects:3 ~words:12;
      Obs.Trace.census ~site:1 ~objects:4 ~words:12
        ~ages:[ ("0", 1); ("2-3", 3) ];
      Obs.Trace.gc_end ~kind:"minor" ~pause_us:250.0 ~copied_w:12
        ~promoted_w:12 ~live_w:212;
      Obs.Trace.pretenure ~site:2 ~words:8;
      Obs.Trace.marker_place ~installed:3 ~depth:9;
      Obs.Trace.unwind ~target_depth:4;
      Obs.Trace.slo_breach ~rule:"max_pause" ~observed_us:250.0
        ~limit_us:100.0 ~window_us:0.0;
      Obs.Trace.policy_update ~knob:"pretenure_site:2" ~old_value:0
        ~new_value:1 ~window:2
        ~signals:[ ("old_permille", 875); ("objects", 64) ]);
  check_str "emitted lines" golden (Buffer.contents buf);
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.iter (fun line ->
      if line <> "" then
        match Obs.Schema.validate_line line with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "golden line rejected: %s" msg)

(* The async writer domain must reproduce the sync output byte for byte:
   records are stamped at emit time and written in emit order, so moving
   serialisation to another domain is unobservable in the sink. *)
let async_writer_golden () =
  let buf = Buffer.create 1024 in
  Obs.Trace.with_buffer ~clock:(ticking_clock ()) ~async:true buf (fun () ->
      Obs.Trace.gc_begin ~kind:"minor" ~nursery_w:100 ~tenured_w:200 ~los_w:0;
      Obs.Trace.site_alloc ~site:1 ~objects:10 ~words:30;
      Obs.Trace.phase ~name:"roots" ~dur_us:12.5 ~counters:[ ("roots", 3) ];
      Obs.Trace.stack_scan ~mode:"minor" ~valid_prefix:2 ~depth:5 ~decoded:3
        ~reused:2 ~slots:7 ~roots:4;
      Obs.Trace.site_survival ~site:1 ~objects:4 ~first_objects:3 ~words:12;
      Obs.Trace.census ~site:1 ~objects:4 ~words:12
        ~ages:[ ("0", 1); ("2-3", 3) ];
      Obs.Trace.gc_end ~kind:"minor" ~pause_us:250.0 ~copied_w:12
        ~promoted_w:12 ~live_w:212;
      Obs.Trace.pretenure ~site:2 ~words:8;
      Obs.Trace.marker_place ~installed:3 ~depth:9;
      Obs.Trace.unwind ~target_depth:4;
      Obs.Trace.slo_breach ~rule:"max_pause" ~observed_us:250.0
        ~limit_us:100.0 ~window_us:0.0;
      Obs.Trace.policy_update ~knob:"pretenure_site:2" ~old_value:0
        ~new_value:1 ~window:2
        ~signals:[ ("old_permille", 875); ("objects", 64) ]);
  check_str "async emitted lines" golden (Buffer.contents buf)

(* Emitters hold the tracer's lock, so domains may interleave freely:
   every line must still be whole and schema-valid, seq must stay a
   permutation of 0..n-1, and each record must carry its emitter's
   domain id. *)
let multi_domain_emission () =
  let per_domain = 200 in
  let buf = Buffer.create (1 lsl 16) in
  Obs.Trace.with_buffer ~async:true buf (fun () ->
      let emit_some () =
        for i = 0 to per_domain - 1 do
          Obs.Trace.unwind ~target_depth:i
        done
      in
      let d = Domain.spawn emit_some in
      emit_some ();
      Domain.join d);
  let lines =
    List.filter (fun l -> l <> "")
      (String.split_on_char '\n' (Buffer.contents buf))
  in
  check_int "all records written" (2 * per_domain) (List.length lines);
  let seqs = Hashtbl.create 64 in
  let doms = Hashtbl.create 4 in
  List.iter
    (fun line ->
      (match Obs.Schema.validate_line line with
       | Ok () -> ()
       | Error msg -> Alcotest.failf "concurrent line rejected: %s" msg);
      let j = Obs.Json.parse line in
      (match Obs.Json.member "seq" j with
       | Some (Obs.Json.Num f) -> Hashtbl.replace seqs (int_of_float f) ()
       | _ -> Alcotest.fail "seq missing");
      match Obs.Json.member "dom" j with
      | Some (Obs.Json.Num f) -> Hashtbl.replace doms (int_of_float f) ()
      | _ -> Alcotest.fail "dom missing")
    lines;
  check_int "seq is a permutation" (2 * per_domain) (Hashtbl.length seqs);
  check_int "both domains stamped" 2 (Hashtbl.length doms)

let disabled_is_silent () =
  check_bool "off by default" false (Obs.Trace.enabled ());
  (* emitters must be no-ops, not crashes, with no tracer installed *)
  Obs.Trace.gc_begin ~kind:"minor" ~nursery_w:0 ~tenured_w:0 ~los_w:0;
  Obs.Trace.unwind ~target_depth:0

(* --- Traced workloads --- *)

let traced_lines f =
  let buf = Buffer.create (1 lsl 16) in
  let r = Obs.Trace.with_buffer buf f in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (Buffer.contents buf))
  in
  (r, lines)

(* drop the wall-clock fields; everything left is deterministic work *)
let normalize line =
  match Obs.Json.parse line with
  | Obs.Json.Obj members ->
    Obs.Json.to_string
      (Obs.Json.Obj
         (List.filter
            (fun (k, _) -> k <> "t_us" && k <> "pause_us" && k <> "dur_us")
            members))
  | j -> Obs.Json.to_string j

let measure_life () =
  let w = Workloads.Registry.find "life" in
  let cfg =
    Harness.Runs.with_nursery_cap
      (Gsc.Config.generational ~budget_bytes:(64 * 1024))
  in
  Harness.Measure.run ~workload:w ~scale:20 ~cfg ~k:0. ()

let workload_trace_stable () =
  let _, lines1 = traced_lines (fun () -> ignore (measure_life ())) in
  let _, lines2 = traced_lines (fun () -> ignore (measure_life ())) in
  check_bool "collections happened" true (List.length lines1 > 0);
  List.iter
    (fun line ->
      match Obs.Schema.validate_line line with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "trace line rejected: %s" msg)
    lines1;
  check_int "same event count" (List.length lines1) (List.length lines2);
  List.iter2
    (fun a b -> check_str "same event modulo timestamps" (normalize a) (normalize b))
    lines1 lines2

let tracing_preserves_stats () =
  let untraced = measure_life () in
  let traced, _ = traced_lines measure_life in
  check_int "gcs" untraced.Harness.Measure.num_gcs traced.Harness.Measure.num_gcs;
  check_int "bytes copied" untraced.Harness.Measure.bytes_copied
    traced.Harness.Measure.bytes_copied;
  check_int "frames decoded" untraced.Harness.Measure.frames_decoded
    traced.Harness.Measure.frames_decoded;
  check_bool "identical simulated time" true
    (untraced.Harness.Measure.total_seconds
     = traced.Harness.Measure.total_seconds)

let summary_renders () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.record m
    (Obs.Event.Gc_end
       { kind = "minor"; pause_us = 42.; copied_w = 1; promoted_w = 1; live_w = 2 });
  Obs.Metrics.record m
    (Obs.Event.Phase { name = "copy"; dur_us = 30.; counters = [ ("copied_w", 1) ] });
  Obs.Metrics.record m
    (Obs.Event.Site_survival { site = 0; objects = 1; first_objects = 1; words = 2 });
  let out = Obs.Summary.render ~site_name:(fun _ -> "list.cons") m in
  List.iter
    (fun needle -> check_bool needle true (contains ~needle out))
    [ "pause (minor)"; "phase"; "copy"; "list.cons" ]

(* --- with_file on exceptional exit --- *)

let with_file_flushes_on_raise () =
  let path = Filename.temp_file "gsc_trace" ".jsonl" in
  (try
     Obs.Trace.with_file path (fun () ->
         Obs.Trace.gc_begin ~kind:"minor" ~nursery_w:1 ~tenured_w:0 ~los_w:0;
         (* in-pause records sit in the concurrent sink until the gc_end
            that never comes: the exit path must still drain and flush *)
         Obs.Trace.phase ~name:"roots" ~dur_us:1.0 ~counters:[];
         failwith "workload crashed")
   with Failure _ -> ());
  let ic = open_in path in
  let lines =
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let rec go acc =
      match input_line ic with
      | exception End_of_file -> List.rev acc
      | l -> go (l :: acc)
    in
    go []
  in
  Sys.remove path;
  check_int "both buffered records on disk" 2 (List.length lines);
  List.iter
    (fun line ->
      match Obs.Schema.validate_line line with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "flushed line rejected: %s" msg)
    lines

(* --- the offline analyzer --- *)

let env ~seq ~t_us ~gc rest =
  Printf.sprintf "{\"v\":6,\"seq\":%d,\"t_us\":%.1f,\"gc\":%d,\"dom\":0,%s}"
    seq t_us gc rest

let analyzed_exn lines =
  match Obs.Profile.of_lines lines with
  | Ok t -> t
  | Error msg -> Alcotest.failf "analyze: %s" msg

(* one minor collection pausing [0, 100] us, mutator active to t = 1000 *)
let synthetic_trace =
  [ env ~seq:0 ~t_us:0.0 ~gc:1
      {|"ev":"gc_begin","kind":"minor","nursery_w":10,"tenured_w":0,"los_w":0|};
    env ~seq:1 ~t_us:1.0 ~gc:1 {|"ev":"site_alloc","site":1,"objects":100,"words":300|};
    env ~seq:2 ~t_us:2.0 ~gc:1 {|"ev":"site_alloc","site":2,"objects":50,"words":100|};
    env ~seq:3 ~t_us:3.0 ~gc:1 {|"ev":"site_alloc","site":3,"objects":4,"words":8|};
    env ~seq:4 ~t_us:4.0 ~gc:1
      {|"ev":"site_survival","site":1,"objects":90,"first_objects":85,"words":270|};
    env ~seq:5 ~t_us:5.0 ~gc:1
      {|"ev":"site_survival","site":2,"objects":10,"first_objects":10,"words":20|};
    env ~seq:6 ~t_us:6.0 ~gc:1
      {|"ev":"site_survival","site":3,"objects":4,"first_objects":4,"words":8|};
    env ~seq:7 ~t_us:7.0 ~gc:1 {|"ev":"census","site":1,"objects":90,"words":270,"ages":{"0":90}|};
    env ~seq:8 ~t_us:8.0 ~gc:1 {|"ev":"census","site":2,"objects":10,"words":20,"ages":{"0":10}|};
    env ~seq:9 ~t_us:100.0 ~gc:1
      {|"ev":"gc_end","kind":"minor","pause_us":100.0,"copied_w":104,"promoted_w":104,"live_w":104|};
    env ~seq:10 ~t_us:1000.0 ~gc:1 {|"ev":"marker_place","installed":0,"depth":1|} ]

let analyzer_fold () =
  let t = analyzed_exn synthetic_trace in
  check_int "events" 11 t.Obs.Profile.events;
  check_int "collections" 1 t.Obs.Profile.collections;
  check_bool "gc kinds" true (t.Obs.Profile.gc_kinds = [ ("minor", 1) ]);
  check_int "sites" 3 (List.length t.Obs.Profile.sites);
  (match Obs.Profile.site_stats t ~site:1 with
   | None -> Alcotest.fail "site 1 missing"
   | Some s ->
     check_int "alloc objects" 100 s.Obs.Profile.alloc_objects;
     check_int "alloc words" 300 s.Obs.Profile.alloc_words;
     check_int "survived" 90 s.Obs.Profile.survived_objects;
     check_int "first" 85 s.Obs.Profile.first_objects;
     check_bool "old fraction" true (Obs.Profile.old_fraction s = 0.85));
  (match t.Obs.Profile.pauses with
   | [ p ] ->
     check_bool "pause start from gc_begin" true (p.Obs.Profile.start_us = 0.);
     check_bool "pause duration" true (p.Obs.Profile.dur_us = 100.)
   | ps -> Alcotest.failf "expected 1 pause, got %d" (List.length ps));
  (match t.Obs.Profile.censuses with
   | [ c ] ->
     check_int "census gc" 1 c.Obs.Profile.census_gc;
     check_int "census rows" 2 (List.length c.Obs.Profile.rows)
   | cs -> Alcotest.failf "expected 1 census, got %d" (List.length cs));
  check_int "copied" 104 t.Obs.Profile.copied_w;
  check_bool "span covers the quiet tail" true (t.Obs.Profile.span_us = 1000.);
  (* selection: site 1 is old and hot; site 2 is young; site 3 is old but
     too cold to clear the noise guard *)
  check_bool "selection" true
    (Obs.Profile.select_pretenure t ~cutoff:0.8 ~min_objects:32 = [ 1 ])

let analyzer_rejects_bad_lines () =
  (match Obs.Profile.of_lines [ "{\"v\":1}" ] with
   | Error msg -> check_bool "line number named" true (contains ~needle:"line 1" msg)
   | Ok _ -> Alcotest.fail "accepted an invalid line");
  match
    Obs.Profile.of_lines
      (synthetic_trace @ [ "not json" ])
  with
  | Error msg -> check_bool "tail line named" true (contains ~needle:"line 12" msg)
  | Ok _ -> Alcotest.fail "accepted trailing garbage"

let pause_percentiles_exact () =
  let lines =
    List.concat
      (List.mapi
         (fun i dur ->
           let gc = i + 1 in
           let t0 = float_of_int (i * 1000) in
           [ env ~seq:(2 * i) ~t_us:t0 ~gc
               {|"ev":"gc_begin","kind":"minor","nursery_w":1,"tenured_w":0,"los_w":0|};
             env ~seq:((2 * i) + 1) ~t_us:(t0 +. dur) ~gc
               (Printf.sprintf
                  {|"ev":"gc_end","kind":"minor","pause_us":%.1f,"copied_w":0,"promoted_w":0,"live_w":0|}
                  dur) ])
         [ 10.; 20.; 30.; 40. ])
  in
  let t = analyzed_exn lines in
  match Obs.Profile.pause_percentiles t with
  | [ ("all", a); ("minor", m) ] ->
    check_int "count" 4 a.Obs.Profile.count;
    check_bool "p50 is the 2nd of 4" true (a.Obs.Profile.p50 = 20.);
    check_bool "p90 is the 4th of 4" true (a.Obs.Profile.p90 = 40.);
    check_bool "p99" true (a.Obs.Profile.p99 = 40.);
    check_bool "max" true (a.Obs.Profile.max_us = 40.);
    check_bool "total" true (a.Obs.Profile.total_us = 100.);
    check_bool "per-kind mirrors all here" true (m = a)
  | l -> Alcotest.failf "expected [all; minor], got %d entries" (List.length l)

let mmu_conventions () =
  let t = analyzed_exn synthetic_trace in
  (* one 100 us pause in a 1000 us run *)
  check_bool "window swallowed by the pause" true
    (Obs.Profile.mmu t ~window_us:50. = 0.);
  check_bool "window twice the pause" true
    (Obs.Profile.mmu t ~window_us:200. = 0.5);
  check_bool "window longer than the run degenerates to utilisation" true
    (Obs.Profile.mmu t ~window_us:5000. = 0.9);
  check_bool "curve echoes windows" true
    (Obs.Profile.mmu_curve t ~windows_us:[ 50.; 200. ]
     = [ (50., 0.); (200., 0.5) ]);
  (* a trace with no pauses is all mutator *)
  let quiet =
    analyzed_exn
      [ env ~seq:0 ~t_us:5.0 ~gc:0 {|"ev":"marker_place","installed":1,"depth":1|} ]
  in
  check_bool "zero-pause trace" true (Obs.Profile.mmu quiet ~window_us:1. = 1.);
  check_bool "no pauses, no percentiles" true
    (Obs.Profile.pause_percentiles quiet = [])

(* --- live census emission --- *)

let census_cfg ~period =
  Harness.Runs.with_nursery_cap
    { (Gsc.Config.generational ~budget_bytes:(64 * 1024)) with
      Gsc.Config.census_period = period }

let census_workload_valid () =
  let w = Workloads.Registry.find "life" in
  let _, lines =
    traced_lines (fun () ->
        ignore (Harness.Measure.run ~workload:w ~scale:20 ~cfg:(census_cfg ~period:2) ~k:0. ()))
  in
  let t = analyzed_exn lines in
  check_bool "censuses emitted" true (t.Obs.Profile.censuses <> []);
  check_bool "sampled every 2nd collection at most" true
    (List.length t.Obs.Profile.censuses
     <= (t.Obs.Profile.collections / 2) + 1);
  List.iter
    (fun c ->
      List.iter
        (fun r ->
          check_bool "age buckets partition the objects" true
            (List.fold_left (fun acc (_, n) -> acc + n) 0 r.Obs.Profile.c_ages
             = r.Obs.Profile.c_objects);
          check_bool "words cover headers" true
            (r.Obs.Profile.c_words >= r.Obs.Profile.c_objects))
        c.Obs.Profile.rows)
    t.Obs.Profile.censuses;
  (* per-site allocation totals are exact: every surviving word was
     allocated, so census live words never exceed the site's total *)
  List.iter
    (fun c ->
      List.iter
        (fun r ->
          match Obs.Profile.site_stats t ~site:r.Obs.Profile.c_site with
          | None -> Alcotest.fail "census names an unknown site"
          | Some s ->
            check_bool "live <= allocated" true
              (r.Obs.Profile.c_words <= s.Obs.Profile.alloc_words))
        c.Obs.Profile.rows)
    t.Obs.Profile.censuses

let census_off_is_untraced () =
  let w = Workloads.Registry.find "life" in
  let run cfg = traced_lines (fun () ->
      ignore (Harness.Measure.run ~workload:w ~scale:20 ~cfg ~k:0. ()))
  in
  let _, with_census = run (census_cfg ~period:2) in
  let _, without = run (census_cfg ~period:0) in
  let is_census line = contains ~needle:"\"ev\":\"census\"" line in
  check_bool "period 2 emits censuses" true (List.exists is_census with_census);
  check_bool "period 0 emits none" true
    (not (List.exists is_census without));
  (* the census is a pure addition: removing its records recovers the
     census-free run, so the sampling never perturbs collection.  [seq]
     goes too — census records consume sequence numbers. *)
  let renumber line =
    match Obs.Json.parse (normalize line) with
    | Obs.Json.Obj members ->
      Obs.Json.to_string
        (Obs.Json.Obj (List.filter (fun (k, _) -> k <> "seq") members))
    | j -> Obs.Json.to_string j
  in
  let strip l = List.map renumber (List.filter (fun x -> not (is_census x)) l) in
  check_bool "identical modulo census records" true
    (strip with_census = strip without)

(* --- the closed pretenure loop --- *)

(* One workload around the loop: profile it, derive the policy from the
   trace and from the live profiler (the two routes must agree exactly),
   save and reload it, run under it with no profiler attached, and
   re-derive it from that run.  Returns the number of sites selected. *)
let closed_loop (w : Workloads.Spec.t) =
  let sc = Harness.Runs.scale ~factor:0.9 w in
  let cutoff = Harness.Runs.cutoff and min_objects = Harness.Runs.min_objects in
  let check what = check_bool (w.name ^ ": " ^ what) true in
  (* the standard profiled configuration: calibrated budget, k = 4 *)
  let prof_cfg =
    Harness.Runs.config_for ~workload:w ~scale:sc
      ~technique:Harness.Runs.Profiled ~k:4.0
  in
  let budget = prof_cfg.Gsc.Config.budget_bytes in
  let m, lines =
    traced_lines (fun () ->
        Harness.Measure.run ~workload:w ~scale:sc ~cfg:prof_cfg ~k:4.0 ())
  in
  let live_profile =
    match m.Harness.Measure.profile with
    | Some p -> p
    | None -> Alcotest.failf "%s: profiled run kept no profile" w.name
  in
  let analyzed = analyzed_exn lines in
  (* the offline analyzer reproduces the live profiler's decision: the
     file `repro profile -o` writes equals the one emit-policy writes *)
  let pf =
    Gsc.Policy_file.of_profile analyzed ~cutoff ~min_objects
      ~scan_elision:true
  in
  check "trace policy = live policy"
    (pf
     = Gsc.Policy_file.of_profile_data live_profile ~cutoff ~min_objects
         ~scan_elision:true);
  let live =
    Gsc.Pretenure.of_profile live_profile ~cutoff ~min_objects
      ~scan_elision:true
  in
  check "live Pretenure policy = policy file (sites)"
    (pf.Gsc.Policy_file.sites = Gsc.Pretenure.pretenured_sites live);
  check "live Pretenure policy = policy file (scan elision)"
    (pf.Gsc.Policy_file.scan_elision = Gsc.Pretenure.scan_elision live);
  (* the policy survives the file system *)
  let path = Filename.temp_file "gsc_policy" ".json" in
  Gsc.Policy_file.save pf path;
  let loaded =
    match Gsc.Policy_file.load path with
    | Ok p -> p
    | Error msg -> Alcotest.failf "%s: load: %s" w.name msg
  in
  Sys.remove path;
  check "policy round-trips" (loaded = pf);
  (* a second run driven by the loaded policy — live profiler off —
     pretenures exactly the selected sites *)
  let run_cfg =
    Harness.Runs.with_nursery_cap
      (Gsc.Config.with_pretenuring ~budget_bytes:budget
         (Gsc.Pretenure.of_policy loaded))
  in
  let mb, lines_b =
    traced_lines (fun () ->
        Harness.Measure.run ~workload:w ~scale:sc ~cfg:run_cfg ~k:0. ())
  in
  check "policy-driven run pretenures iff the policy selects a site"
    ((mb.Harness.Measure.bytes_pretenured > 0)
     = (loaded.Gsc.Policy_file.sites <> []));
  let b = analyzed_exn lines_b in
  let pretenured_b =
    List.filter_map
      (fun s ->
        if s.Obs.Profile.pretenured_objects > 0 then Some s.Obs.Profile.site
        else None)
      b.Obs.Profile.sites
  in
  check "every pretenured site was selected"
    (List.for_all (fun s -> List.mem s loaded.Gsc.Policy_file.sites) pretenured_b);
  check "every selected site pretenured"
    (List.for_all
       (fun s ->
         match Obs.Profile.site_stats b ~site:s with
         | Some st ->
           st.Obs.Profile.pretenured_objects = st.Obs.Profile.alloc_objects
         | None -> true)
       loaded.Gsc.Policy_file.sites);
  (* re-deriving a policy from the policy-driven run's own trace keeps
     every site: pretenured objects count as surviving by fiat *)
  let pf_b =
    Gsc.Policy_file.of_profile b ~cutoff ~min_objects ~scan_elision:true
  in
  check "selection is stable under its own policy"
    (List.for_all
       (fun s -> List.mem s pf_b.Gsc.Policy_file.sites)
       loaded.Gsc.Policy_file.sites);
  List.length loaded.Gsc.Policy_file.sites

(* One loop per registered workload, each its own test case; the loops
   are shared with the cross-workload check below, so none runs twice. *)
let closed_loops =
  List.map
    (fun (w : Workloads.Spec.t) -> (w.name, lazy (closed_loop w)))
    Workloads.Registry.all

let closed_loop_cases =
  List.map
    (fun (name, loop) ->
      Alcotest.test_case ("closed loop " ^ name) `Slow (fun () ->
          ignore (Lazy.force loop)))
    closed_loops

let some_workload_selects () =
  check_bool "some workload selects a site" true
    (List.exists (fun (_, loop) -> Lazy.force loop > 0) closed_loops)

(* Every registered workload, profiled and traced into one buffer: the
   runtime's profile and the trace fold carry the same per-site
   accounting.  k = 2 makes room tight enough for copying majors, so
   major copies reach both sides too. *)
let live_profile_equals_trace_fold () =
  let bpw = Mem.Memory.bytes_per_word in
  List.iter
    (fun (w : Workloads.Spec.t) ->
      let sc = Harness.Runs.scale ~factor:0.5 w in
      let cfg =
        Harness.Runs.config_for ~workload:w ~scale:sc
          ~technique:Harness.Runs.Profiled ~k:2.0
      in
      let m, lines =
        traced_lines (fun () ->
            Harness.Measure.run ~workload:w ~scale:sc ~cfg ~k:2.0 ())
      in
      let live =
        match m.Harness.Measure.profile with
        | Some p -> p
        | None -> Alcotest.failf "%s: profiled run kept no profile" w.name
      in
      let folded = analyzed_exn lines in
      (* (site, (objects, (alloc bytes, (copied bytes, old fraction)))) *)
      let of_live (s : Heap_profile.Profile_data.site) =
        Heap_profile.Profile_data.
          (s.site, (s.alloc_count, (s.alloc_bytes, (s.copied_bytes, s.old_fraction))))
      in
      let of_trace (s : Obs.Profile.site) =
        Obs.Profile.
          ( s.site,
            ( s.alloc_objects,
              (s.alloc_words * bpw, (s.survived_words * bpw, old_fraction s)) ) )
      in
      Alcotest.(check (list (pair int (pair int (pair int (pair int (float 0.)))))))
        (w.name ^ ": per-site rows")
        (List.map of_trace folded.Obs.Profile.sites)
        (List.map of_live live.Heap_profile.Profile_data.sites))
    Workloads.Registry.all

let policy_file_rejects () =
  let check_err what text needle =
    let path = Filename.temp_file "gsc_policy" ".json" in
    let oc = open_out path in
    output_string oc text;
    close_out oc;
    (match Gsc.Policy_file.load path with
     | Ok _ -> Alcotest.failf "%s: accepted" what
     | Error msg ->
       check_bool (what ^ ": error names the cause") true
         (contains ~needle msg));
    Sys.remove path
  in
  check_err "foreign version"
    {|{"v":99,"kind":"pretenure_policy","cutoff":0.8,"min_objects":32,"sites":[],"scan_elision":false}|}
    "version 99";
  check_err "wrong kind"
    {|{"v":6,"kind":"mystery","cutoff":0.8,"min_objects":32,"sites":[],"scan_elision":false}|}
    "kind";
  check_err "scan_elision not a bool"
    {|{"v":6,"kind":"pretenure_policy","cutoff":0.8,"min_objects":32,"sites":[1],"scan_elision":[1]}|}
    "scan_elision";
  check_err "missing field"
    {|{"v":6,"kind":"pretenure_policy","cutoff":0.8,"sites":[],"scan_elision":false}|}
    "min_objects"

(* --- loader robustness ---

   One real trace, captured in-process with a census every second
   collection and the adaptive control plane on (the gc-trace
   [--census 2 --adaptive] shape, under a p99 target tight enough to
   force decisions), is mutated with a fixed seed: truncation, byte
   flips, numbers swapped for out-of-range values, deleted spans.  The
   trace readers and the policy loader must answer [Ok] or [Error] for
   every mutant; an escaping exception is a bug. *)

let robustness_trace () =
  let cfg =
    { (Gsc.Config.generational ~budget_bytes:(8 * 1024 * 1024)) with
      Gsc.Config.adaptive = true;
      census_period = 2;
      nursery_bytes_max = 64 * 1024;
      slo = { Obs.Slo.no_target with Obs.Slo.p99_us = Some 1. } }
  in
  let _, lines =
    traced_lines (fun () ->
        let rt = Gsc.Runtime.create cfg in
        Fun.protect ~finally:(fun () -> Gsc.Runtime.destroy rt) @@ fun () ->
        ignore
          (Workloads.Serve.run rt ~phase_shift:300 ~tenants:3 ~sessions:16
             ~requests:600 ~rate_rps:4000. ~seed:7 ()))
  in
  (cfg, lines)

let odd_numbers =
  [| "-1"; "1e308"; "-1e308"; "99999999999999999999"; "4611686018427387904";
     "-4611686018427387905"; "1e-308"; "0.5" |]

let is_num_char = function
  | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
  | _ -> false

let mutate_string rng s =
  let n = String.length s in
  if n = 0 then s
  else
    match Random.State.int rng 4 with
    | 0 -> String.sub s 0 (Random.State.int rng n)
    | 1 ->
      let b = Bytes.of_string s in
      Bytes.set b (Random.State.int rng n) (Char.chr (Random.State.int rng 256));
      Bytes.to_string b
    | 2 ->
      (* swap one number for an out-of-range or foreign-typed one *)
      let starts =
        List.filter
          (fun i ->
            (match s.[i] with '0' .. '9' -> true | _ -> false)
            && (i = 0 || not (is_num_char s.[i - 1])))
          (List.init n Fun.id)
      in
      (match starts with
       | [] -> s
       | _ ->
         let i = List.nth starts (Random.State.int rng (List.length starts)) in
         let j = ref i in
         while !j < n && is_num_char s.[!j] do
           incr j
         done;
         String.sub s 0 i
         ^ odd_numbers.(Random.State.int rng (Array.length odd_numbers))
         ^ String.sub s !j (n - !j))
    | _ ->
      let i = Random.State.int rng n in
      let len = 1 + Random.State.int rng (n - i) in
      String.sub s 0 i ^ String.sub s (i + len) (n - i - len)

let mutate_trace rng lines =
  let a = Array.of_list lines in
  let n = Array.length a in
  let sub i len = Array.to_list (Array.sub a i len) in
  match Random.State.int rng 3 with
  | 0 ->
    let k = Random.State.int rng n in
    sub 0 k @ [ String.sub a.(k) 0 (Random.State.int rng (String.length a.(k) + 1)) ]
  | 1 ->
    let i = Random.State.int rng n in
    let len = 1 + Random.State.int rng (min 20 (n - i)) in
    sub 0 i @ sub (i + len) (n - i - len)
  | _ ->
    for _ = 0 to Random.State.int rng 3 do
      let i = Random.State.int rng n in
      a.(i) <- mutate_string rng a.(i)
    done;
    Array.to_list a

let no_raise what f =
  match f () with
  | () -> ()
  | exception e -> Alcotest.failf "%s raised %s" what (Printexc.to_string e)

let loaders_never_raise () =
  let cfg, lines = robustness_trace () in
  let profile =
    match Obs.Profile.of_lines lines with
    | Ok p -> p
    | Error msg -> Alcotest.failf "captured trace rejected: %s" msg
  in
  check_bool "the trace carries censuses" true (profile.Obs.Profile.censuses <> []);
  check_bool "the trace carries policy updates" true
    (profile.Obs.Profile.policy_updates <> []);
  let gcfg = Gsc.Config.generational_config cfg in
  let replay lines =
    ignore
      (Control.Replay.of_lines (Control.Params.default ())
         ~pretenured:gcfg.Collectors.Generational.pretenured_init lines)
  in
  let policy =
    Obs.Json.to_string
      (Gsc.Policy_file.to_json
         (Gsc.Policy_file.of_profile profile ~cutoff:0.5 ~min_objects:1
            ~scan_elision:true))
  in
  let rng = Random.State.make [| 2024 |] in
  let alphabet = "{}[]:,\"\\ 0123456789.eE+-truefalsnv_" in
  for _ = 1 to 3000 do
    let s =
      String.init (Random.State.int rng 64) (fun _ ->
          alphabet.[Random.State.int rng (String.length alphabet)])
    in
    no_raise "Obs.Json.parse_opt" (fun () -> ignore (Obs.Json.parse_opt s));
    no_raise "Obs.Schema.validate_line" (fun () ->
        ignore (Obs.Schema.validate_line s))
  done;
  for _ = 1 to 600 do
    let m = mutate_trace rng lines in
    no_raise "Obs.Profile.of_lines" (fun () -> ignore (Obs.Profile.of_lines m));
    no_raise "Obs.Schema.validate_line" (fun () ->
        List.iter (fun l -> ignore (Obs.Schema.validate_line l)) m);
    no_raise "Control.Replay.of_lines" (fun () -> replay m)
  done;
  for _ = 1 to 6000 do
    let doc = ref policy in
    for _ = 0 to Random.State.int rng 2 do
      doc := mutate_string rng !doc
    done;
    no_raise "Gsc.Policy_file.of_json" (fun () ->
        Option.iter
          (fun j -> ignore (Gsc.Policy_file.of_json j))
          (Obs.Json.parse_opt !doc))
  done

(* --- the online SLO monitor --- *)

(* The tracer stamps a breach record immediately after the breaching
   gc_end, sharing its timestamp and collection ordinal. *)
let slo_breach_inline () =
  let buf = Buffer.create 512 in
  let slo =
    Obs.Slo.create { Obs.Slo.no_target with Obs.Slo.max_pause_us = Some 50. }
  in
  let m = Obs.Metrics.create () in
  Obs.Trace.with_buffer ~metrics:m ~slo ~clock:(ticking_clock ()) buf
    (fun () ->
      Obs.Trace.gc_begin ~kind:"minor" ~nursery_w:1 ~tenured_w:0 ~los_w:0;
      Obs.Trace.gc_end ~kind:"minor" ~pause_us:100.0 ~copied_w:0
        ~promoted_w:0 ~live_w:0);
  let expected =
    String.concat "\n"
      [ {|{"v":6,"seq":0,"t_us":1.0,"gc":1,"dom":0,"ev":"gc_begin","kind":"minor","nursery_w":1,"tenured_w":0,"los_w":0}|};
        {|{"v":6,"seq":1,"t_us":2.0,"gc":1,"dom":0,"ev":"gc_end","kind":"minor","pause_us":100.0,"copied_w":0,"promoted_w":0,"live_w":0}|};
        {|{"v":6,"seq":2,"t_us":2.0,"gc":1,"dom":0,"ev":"slo_breach","rule":"max_pause","observed_us":100.0,"limit_us":50.0,"window_us":0.0}|};
        "" ]
  in
  check_str "breach rides behind its gc_end" expected (Buffer.contents buf);
  check_int "breach counted" 1 (Obs.Slo.breach_total slo);
  check_bool "per-rule count" true
    (Obs.Slo.breaches slo = [ ("max_pause", 1) ]);
  check_int "metrics total" 1 (Obs.Metrics.get_counter m "slo.breach");
  check_int "metrics per rule" 1
    (Obs.Metrics.get_counter m "slo.breach.max_pause")

(* The acceptance fixed point: end-of-run online percentiles and MMU
   equal the offline analyzer on the identical trace — exactly, because
   both sides evaluate the same kernels on the same quantised values. *)
let slo_equals_profile () =
  let slo =
    Obs.Slo.create
      { Obs.Slo.max_pause_us = Some 1.0;   (* absurdly tight: breaches *)
        p99_us = Some 1.0;
        p999_us = Some 1.0;
        min_mmu = Some 0.999;
        mmu_window_us = 500. }
  in
  let buf = Buffer.create (1 lsl 16) in
  Obs.Trace.with_buffer ~slo buf (fun () -> ignore (measure_life ()));
  let lines =
    List.filter (fun l -> l <> "")
      (String.split_on_char '\n' (Buffer.contents buf))
  in
  let t = analyzed_exn lines in
  check_bool "collections happened" true (t.Obs.Profile.pauses <> []);
  check_bool "breaches forced" true (Obs.Slo.breach_total slo > 0);
  check_bool "span exact" true (Obs.Slo.span_us slo = t.Obs.Profile.span_us);
  check_bool "pause count exact" true
    (Obs.Slo.pause_count slo = List.length t.Obs.Profile.pauses);
  check_bool "percentiles exact (all kinds, p50/p90/p99/p99.9/max/total)"
    true
    (Obs.Slo.percentiles slo = Obs.Profile.pause_percentiles t);
  List.iter
    (fun w ->
      check_bool (Printf.sprintf "mmu@%.0fus exact" w) true
        (Obs.Slo.mmu slo ~window_us:w = Obs.Profile.mmu t ~window_us:w))
    [ 10.; 100.; 1000.; 10_000.; 1e7 ];
  check_bool "offline counts the online breach records" true
    (Obs.Slo.breaches slo = t.Obs.Profile.slo_breaches)

(* The trailing-window "mmu" rule: a pause consuming a whole window
   breaches a 99.9% floor; the run's first window is grace. *)
let slo_mmu_rule () =
  let clock =
    let c = ref 0. in
    fun () -> let v = !c in c := v +. 1e-3; v  (* 1000us per record *)
  in
  let slo =
    Obs.Slo.create
      { Obs.Slo.no_target with
        Obs.Slo.min_mmu = Some 0.5;
        mmu_window_us = 2000. }
  in
  Obs.Trace.with_buffer ~slo ~clock (Buffer.create 512) (fun () ->
      (* gc 1: begin t=1000, end t=2000, pause 1500 of the trailing 2000
         window -> utilisation 0.25 < 0.5: breach *)
      Obs.Trace.gc_begin ~kind:"minor" ~nursery_w:1 ~tenured_w:0 ~los_w:0;
      Obs.Trace.gc_end ~kind:"minor" ~pause_us:1500.0 ~copied_w:0
        ~promoted_w:0 ~live_w:0);
  check_bool "busy window breaches" true
    (Obs.Slo.breaches slo = [ ("mmu", 1) ])

(* Streaming percentile reads match a sequential fold of the same
   samples: the online sorted-insert + nearest-rank equals sorting the
   whole sample and applying the offline formula. *)
let slo_percentile_prop =
  QCheck.Test.make ~name:"online percentile = sequential fold" ~count:200
    QCheck.(list_of_size Gen.(1 -- 60) (int_bound 10_000))
    (fun samples ->
      let samples = if samples = [] then [ 1 ] else samples in
      let slo = Obs.Slo.create Obs.Slo.no_target in
      List.iteri
        (fun i v ->
          let gc = i + 1 in
          let t0 = float_of_int (i * 100_000) in
          ignore
            (Obs.Slo.observe slo ~gc ~t_us:t0
               (Obs.Event.Gc_begin
                  { kind = "minor"; nursery_w = 0; tenured_w = 0; los_w = 0 }));
          ignore
            (Obs.Slo.observe slo ~gc ~t_us:(t0 +. float_of_int v)
               (Obs.Event.Gc_end
                  { kind = "minor";
                    pause_us = float_of_int v;
                    copied_w = 0;
                    promoted_w = 0;
                    live_w = 0 })))
        samples;
      let arr = Array.of_list (List.map float_of_int samples) in
      Array.sort compare arr;
      let n = Array.length arr in
      List.for_all
        (fun q ->
          Obs.Slo.percentile slo q = Percentiles_ref.percentile_of arr n q)
        [ 0.5; 0.9; 0.99; 0.999 ])

(* The selection kernel against the sort-based oracle.  Samples are
   drawn from a few dozen values, so duplicates are the rule; n = 1 and
   all-equal arrays get generators of their own.  Every sample is a
   multiple of 1/8 below 2^10 and n stays small, so every partial sum is
   exact and the totals must match bit for bit whatever the summation
   order. *)
let percentiles_by_selection_prop =
  let dyadic = QCheck.Gen.map (fun k -> float_of_int k /. 8.) QCheck.Gen.(0 -- 40) in
  let sample =
    QCheck.Gen.(
      oneof
        [ array_size (1 -- 300) dyadic;
          map (fun v -> [| v |]) dyadic;
          map2 (fun n v -> Array.make n v) (1 -- 300) dyadic ])
  in
  QCheck.Test.make ~name:"percentiles by selection = sorted oracle" ~count:500
    (QCheck.make
       ~print:(fun a ->
         String.concat " " (Array.to_list (Array.map string_of_float a)))
       sample)
    (fun durs ->
      let before = Array.copy durs in
      let got = Obs.Profile.percentiles_of durs in
      got = Percentiles_ref.percentiles_of durs && durs = before)

(* [percentiles_of] selects on a copy: its input comes back as it was,
   duplicates, NaN and input order included. *)
let percentiles_input_untouched () =
  let durs = [| 3.5; nan; 1.; 9.25; 1.; 0.; 7. |] in
  let before = Array.map Int64.bits_of_float durs in
  ignore (Obs.Profile.percentiles_of durs : Obs.Profile.percentiles option);
  check_bool "input bit for bit" true
    (Array.map Int64.bits_of_float durs = before)

(* Equal as the sorted oracle sees it: NaN ranks with NaN, so a NaN
   percentile matches a NaN; the total must match bit for bit. *)
let same_percentiles (a : Obs.Profile.percentiles)
    (b : Obs.Profile.percentiles) =
  let open Obs.Profile in
  a.count = b.count
  && Float.equal a.p50 b.p50
  && Float.equal a.p90 b.p90
  && Float.equal a.p99 b.p99
  && Float.equal a.p999 b.p999
  && Float.equal a.max_us b.max_us
  && Int64.equal (Int64.bits_of_float a.total_us)
       (Int64.bits_of_float b.total_us)

(* The group routine against the sorted oracle on each group's samples
   in input order.  Samples are multiples of 1/8 in [-5, 5] or NaN, and
   n stays small, so every partial sum is exact and the totals must
   match bit for bit (a NaN total is the same NaN either way).  The tags
   come from a random subset of the groups, so some groups are empty. *)
let group_percentiles_prop =
  let gen =
    let open QCheck.Gen in
    let sample =
      frequency
        [ (1, return nan);
          (8, map (fun k -> float_of_int k /. 8.) (-40 -- 40)) ]
    in
    let* groups = 1 -- 5 in
    let* live = list_size (1 -- groups) (0 -- (groups - 1)) in
    let* n = 0 -- 300 in
    let* samples = array_repeat n sample in
    let* tags = array_repeat n (oneofl live) in
    return (groups, samples, tags)
  in
  QCheck.Test.make ~name:"group percentiles = sorted oracle per group"
    ~count:500
    (QCheck.make
       ~print:(fun (groups, samples, tags) ->
         Printf.sprintf "groups %d: %s" groups
           (String.concat " "
              (Array.to_list
                 (Array.mapi
                    (fun i v -> Printf.sprintf "%d:%g" tags.(i) v)
                    samples))))
       gen)
    (fun (groups, samples, tags) ->
      let n = Array.length samples in
      let buf = Bytes.create (2 * n) in
      Array.iteri (fun i g -> Bytes.set_uint16_ne buf (2 * i) g) tags;
      let got =
        Obs.Profile.group_percentiles (Array.copy samples) buf ~groups
      in
      Array.length got = groups
      && List.for_all
           (fun g ->
             let mine =
               Array.of_list
                 (List.filteri (fun i _ -> tags.(i) = g)
                    (Array.to_list samples))
             in
             match (got.(g), Percentiles_ref.percentiles_of mine) with
             | None, None -> true
             | Some a, Some b -> same_percentiles a b
             | _ -> false)
           (List.init groups Fun.id))

(* Totals sum each group in input order, as [percentiles_of] does: here
   that order gives 1 and the sorted order 0 (1e16 + 1 rounds back to
   1e16). *)
let group_totals_input_order () =
  let samples = [| 1e16; 5.; 1.; -1e16; 7.; 1. |] in
  let tags = Bytes.create 12 in
  List.iteri (fun i g -> Bytes.set_uint16_ne tags (2 * i) g) [ 0; 1; 0; 0; 1; 0 ];
  let ones = [| 1e16; 1.; -1e16; 1. |] in
  match Obs.Profile.group_percentiles samples tags ~groups:2 with
  | [| Some a; Some b |] ->
    check_bool "input order" true (a.Obs.Profile.total_us = 1.);
    check_bool "as percentiles_of" true
      (Some a = Obs.Profile.percentiles_of ones);
    check_bool "the other group" true (b.Obs.Profile.total_us = 12.)
  | _ -> Alcotest.fail "expected two non-empty groups"

(* A tag at or above [groups] is refused before anything moves. *)
let group_percentiles_bad_tag () =
  let samples = [| 2.; 1.; 3. |] in
  let tags = Bytes.create 6 in
  List.iteri (fun i g -> Bytes.set_uint16_ne tags (2 * i) g) [ 1; 0; 2 ];
  Alcotest.check_raises "tag 2 of 2 groups"
    (Invalid_argument "Profile.group_percentiles: tag not below groups")
    (fun () -> ignore (Obs.Profile.group_percentiles samples tags ~groups:2));
  check_bool "samples unmoved" true (samples = [| 2.; 1.; 3. |]);
  check_bool "tags unmoved" true
    (List.init 3 (fun i -> Bytes.get_uint16_ne tags (2 * i)) = [ 1; 0; 2 ])

(* Per-kind tables: "all" plus each kind, sorted by name; "all" counts
   every pause, including a kind that is itself named "all". *)
let kind_percentiles_all () =
  let names l = List.map fst l in
  let count l k = (List.assoc k l).Obs.Profile.count in
  let pc =
    Obs.Profile.kind_percentiles ~kinds:[| "minor"; "major"; "minor" |]
      [| 10.; 300.; 20. |]
  in
  check_bool "names" true (names pc = [ "all"; "major"; "minor" ]);
  check_int "all" 3 (count pc "all");
  check_int "minor" 2 (count pc "minor");
  check_bool "minor total in input order" true
    ((List.assoc "minor" pc).Obs.Profile.total_us = 30.);
  let odd =
    Obs.Profile.kind_percentiles ~kinds:[| "all"; "minor" |] [| 1.; 2. |]
  in
  check_bool "a kind named all" true
    (names odd = [ "all"; "all"; "minor" ]
     && List.for_all (fun (k, p) -> k <> "all" || p.Obs.Profile.count = 2) odd);
  check_bool "no pauses" true (Obs.Profile.kind_percentiles ~kinds:[||] [||] = [])

(* --- the flight recorder --- *)

let flight_ring_bounded () =
  let fl = Obs.Flight.create ~capacity:8 () in
  Obs.Trace.with_ring ~clock:(ticking_clock ()) fl (fun () ->
      for i = 0 to 19 do
        Obs.Trace.unwind ~target_depth:i
      done);
  check_int "length capped" 8 (Obs.Flight.length fl);
  check_int "stored counts everything" 20 (Obs.Flight.stored fl);
  let b = Buffer.create 1024 in
  check_int "dump count" 8 (Obs.Flight.dump_to_buffer fl b);
  let lines =
    List.filter (fun l -> l <> "")
      (String.split_on_char '\n' (Buffer.contents b))
  in
  check_int "dump lines" 8 (List.length lines);
  List.iteri
    (fun i line ->
      (match Obs.Schema.validate_line line with
       | Ok () -> ()
       | Error msg -> Alcotest.failf "dump line rejected: %s" msg);
      match Obs.Json.member "seq" (Obs.Json.parse line) with
      | Some (Obs.Json.Num f) ->
        check_int "last N, oldest first" (12 + i) (int_of_float f)
      | _ -> Alcotest.fail "seq missing")
    lines

(* Breach-triggered dump: the ring already holds the breaching gc_end
   and its slo_breach when the callback fires (the callback runs outside
   the tracer's lock, after the records flushed). *)
let flight_breach_dump () =
  let fl = Obs.Flight.create ~capacity:32 () in
  let dumped = Buffer.create 1024 in
  let dumps = ref 0 in
  let slo =
    Obs.Slo.create
      ~on_breach:(fun _ ->
        incr dumps;
        if !dumps = 1 then ignore (Obs.Flight.dump_to_buffer fl dumped : int))
      { Obs.Slo.no_target with Obs.Slo.max_pause_us = Some 50. }
  in
  Obs.Trace.with_ring ~slo ~clock:(ticking_clock ()) fl (fun () ->
      Obs.Trace.gc_begin ~kind:"minor" ~nursery_w:1 ~tenured_w:0 ~los_w:0;
      Obs.Trace.gc_end ~kind:"minor" ~pause_us:10.0 ~copied_w:0 ~promoted_w:0
        ~live_w:0;
      Obs.Trace.gc_begin ~kind:"minor" ~nursery_w:1 ~tenured_w:0 ~los_w:0;
      Obs.Trace.gc_end ~kind:"minor" ~pause_us:99.0 ~copied_w:0 ~promoted_w:0
        ~live_w:0);
  check_int "one breach, one dump" 1 !dumps;
  let lines =
    List.filter (fun l -> l <> "")
      (String.split_on_char '\n' (Buffer.contents dumped))
  in
  check_int "ring contents dumped" 5 (List.length lines);
  List.iter
    (fun line ->
      match Obs.Schema.validate_line line with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "breach dump rejected: %s" msg)
    lines;
  check_bool "dump holds the breaching gc_end" true
    (List.exists
       (fun l ->
         contains ~needle:{|"ev":"gc_end"|} l
         && contains ~needle:{|"pause_us":99.0|} l)
       lines);
  check_bool "dump holds the breach verdict" true
    (List.exists (fun l -> contains ~needle:{|"ev":"slo_breach"|} l) lines)

(* A ring dump starts mid-stream; the offline analyzer accepts it and
   anchors the truncated head's pause at its end. *)
let flight_dump_analyzable () =
  let fl = Obs.Flight.create ~capacity:2 () in
  Obs.Trace.with_ring ~clock:(ticking_clock ()) fl (fun () ->
      Obs.Trace.gc_begin ~kind:"minor" ~nursery_w:1 ~tenured_w:0 ~los_w:0;
      Obs.Trace.phase ~name:"roots" ~dur_us:1.0 ~counters:[];
      Obs.Trace.gc_end ~kind:"minor" ~pause_us:5.0 ~copied_w:0 ~promoted_w:0
        ~live_w:0);
  let b = Buffer.create 256 in
  ignore (Obs.Flight.dump_to_buffer fl b : int);
  let lines =
    List.filter (fun l -> l <> "")
      (String.split_on_char '\n' (Buffer.contents b))
  in
  let t = analyzed_exn lines in
  check_int "truncated head still folds" 1 (List.length t.Obs.Profile.pauses)

(* --- metrics under concurrent emitters --- *)

let metrics_parallel_exact () =
  let m = Obs.Metrics.create () in
  let domains = max 2 (min 4 (Domain.recommended_domain_count ())) in
  let per = 5_000 in
  let worker () =
    for i = 1 to per do
      Obs.Metrics.incr m "c" 1;
      Obs.Metrics.observe m "h" (i land 1023)
    done
  in
  let ds = List.init (domains - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join ds;
  check_int "counter sum exact" (domains * per) (Obs.Metrics.get_counter m "c");
  (match Obs.Metrics.get_histogram m "h" with
   | None -> Alcotest.fail "histogram missing"
   | Some h ->
     check_int "histogram count exact" (domains * per) (H.count h);
     let one = ref 0 in
     for i = 1 to per do
       one := !one + (i land 1023)
     done;
     check_int "histogram total exact" (domains * !one) (H.total h));
  check_int "p >= 2 exercised" domains (max domains 2)

(* Concurrent emitters through the full tracer (metrics attached as the
   trace tap) after a parallel drain-style burst: totals stay exact. *)
let metrics_parallel_tap_exact () =
  let m = Obs.Metrics.create () in
  let per = 500 in
  Obs.Trace.with_buffer ~metrics:m ~async:true (Buffer.create (1 lsl 16))
    (fun () ->
      let emit_some () =
        for _ = 1 to per do
          Obs.Trace.unwind ~target_depth:1
        done
      in
      let d = Domain.spawn emit_some in
      emit_some ();
      Domain.join d);
  check_int "tap counters exact after parallel emission" (2 * per)
    (Obs.Metrics.get_counter m "unwinds")

let () =
  Alcotest.run "obs"
    [ ("histogram",
       [ Alcotest.test_case "zero" `Quick hist_zero;
         Alcotest.test_case "powers of two" `Quick hist_powers_of_two;
         Alcotest.test_case "max word" `Quick hist_max_word;
         Alcotest.test_case "bounds errors" `Quick hist_bounds_errors;
         Alcotest.test_case "negative clamps" `Quick hist_negative_clamps;
         QCheck_alcotest.to_alcotest hist_bounds_prop ]);
      ("json",
       [ Alcotest.test_case "roundtrip" `Quick json_roundtrip;
         Alcotest.test_case "rejects" `Quick json_rejects;
         Alcotest.test_case "member" `Quick json_member ]);
      ("metrics",
       [ Alcotest.test_case "basics" `Quick metrics_basics;
         Alcotest.test_case "trace tap" `Quick metrics_tap;
         Alcotest.test_case "phase fractions" `Quick metrics_phase_fractions;
         Alcotest.test_case "snapshot parses" `Quick metrics_snapshot_parses;
         Alcotest.test_case "parallel exact" `Quick metrics_parallel_exact;
         Alcotest.test_case "parallel tap exact" `Quick
           metrics_parallel_tap_exact ]);
      ("schema",
       [ Alcotest.test_case "rejects" `Quick schema_rejects;
         Alcotest.test_case "version gate" `Quick schema_version_gate ]);
      ("trace",
       [ Alcotest.test_case "golden emitter" `Quick golden_emitter;
         Alcotest.test_case "async writer golden" `Quick async_writer_golden;
         Alcotest.test_case "multi-domain emission" `Quick multi_domain_emission;
         Alcotest.test_case "disabled is silent" `Quick disabled_is_silent;
         Alcotest.test_case "workload trace stable" `Quick workload_trace_stable;
         Alcotest.test_case "tracing preserves stats" `Quick
           tracing_preserves_stats;
         Alcotest.test_case "summary renders" `Quick summary_renders;
         Alcotest.test_case "with_file flushes on raise" `Quick
           with_file_flushes_on_raise ]);
      ("profile",
       [ Alcotest.test_case "fold" `Quick analyzer_fold;
         Alcotest.test_case "rejects bad lines" `Quick
           analyzer_rejects_bad_lines;
         Alcotest.test_case "pause percentiles" `Quick pause_percentiles_exact;
         Alcotest.test_case "mmu conventions" `Quick mmu_conventions ]);
      ("slo",
       [ Alcotest.test_case "breach inline" `Quick slo_breach_inline;
         Alcotest.test_case "online equals offline" `Quick slo_equals_profile;
         Alcotest.test_case "mmu rule" `Quick slo_mmu_rule;
         QCheck_alcotest.to_alcotest slo_percentile_prop;
         QCheck_alcotest.to_alcotest percentiles_by_selection_prop;
         Alcotest.test_case "percentiles leave their input" `Quick
           percentiles_input_untouched;
         QCheck_alcotest.to_alcotest group_percentiles_prop;
         Alcotest.test_case "group totals in input order" `Quick
           group_totals_input_order;
         Alcotest.test_case "group tag out of range" `Quick
           group_percentiles_bad_tag;
         Alcotest.test_case "kind tables keep all" `Quick
           kind_percentiles_all ]);
      ("flight",
       [ Alcotest.test_case "ring bounded" `Quick flight_ring_bounded;
         Alcotest.test_case "breach dump" `Quick flight_breach_dump;
         Alcotest.test_case "dump analyzable" `Quick flight_dump_analyzable ]);
      ("census",
       [ Alcotest.test_case "workload census valid" `Quick
           census_workload_valid;
         Alcotest.test_case "census off is untraced" `Quick
           census_off_is_untraced ]);
      ("pretenure loop",
       closed_loop_cases
       @ [ Alcotest.test_case "some workload selects a site" `Slow
             some_workload_selects;
           Alcotest.test_case "live profile equals trace fold" `Slow
             live_profile_equals_trace_fold;
           Alcotest.test_case "policy file rejects" `Quick
             policy_file_rejects ]);
      ("loader robustness",
       [ Alcotest.test_case "mutated traces and policies never raise" `Quick
           loaders_never_raise ]) ]
