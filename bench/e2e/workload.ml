(* The four benchmark workloads, and the protocol that measures one of
   them end to end and layer by layer.

   Each workload runs the paper's whole pipeline — a profiled training
   run, the pretenuring policy derived from it, then measured runs under
   that policy — and every layer is measured from outside the library:
   Gc_stats counters and timers, the marker stub count, the phase spans
   the collectors already emit (folded through Obs.Metrics and Obs.Slo
   on a ring-traced run), and timers around the public calls below. *)

module R = Gsc.Runtime
module S = Collectors.Gc_stats

(* --- the workloads --- *)

type batch = {
  program : string;   (** a paper program, by Workloads.Registry name *)
  factor : int;       (** input size as a multiple of its default scale *)
  k : float;          (** heap budget as a multiple of the calibrated Min *)
  tune : Gsc.Config.t -> Gsc.Config.t;
}

type kind = Batch of batch | Serve

type rep = {
  run_s : float;        (** runtime creation plus the program, wall clock *)
  stats : S.t;
  stub_hits : int;
  report : Workloads.Serve.report option;  (** serve only *)
}

type t = {
  name : string;
  kind : kind;
  purpose : rep -> string option;
      (** [Some why] when the run no longer exercises the layer the
          workload was chosen for; checked on program properties only,
          so no collector gain can trip it *)
}

(* The serve traffic: 3 tenants (one per lifetime profile) of 64
   sessions, driven open loop at about a tenth of measured capacity, so
   queueing comes from collection pauses and not from overload.  At this
   rate the requests queued behind major pauses stay under 1% of the
   stream, so p99 reads the minor pauses and p99.9 the major ones; at
   twice the rate p99 straddled the major-pause queue and jumped between
   28 and 444 us from seed to seed.  300k requests hold the number of
   majors per run at 15-17 across seeds, where 100k gave 5 or 6 and so
   spread gc_s by 11% across seeds. *)
let tenants = 3
let sessions = 64
let requests = 300_000
let fixed_rps = 25_000.

(* Offered far above capacity: the completion horizon is then the total
   service time, so sustained rps is the capacity. *)
let saturating_rps = 1e9

(* Nearest-rank p99.9 of [n] samples leaves this many samples above it. *)
let beyond_p999 n = n - int_of_float (Float.ceil (0.999 *. float_of_int n))

let at_least what ~min v =
  if v >= min then None
  else Some (Printf.sprintf "%s = %g, below the workload's floor of %g" what v min)

let all =
  [ { name = "deep-stack";
      kind = Batch { program = "knuth-bendix"; factor = 1; k = 4.; tune = Fun.id };
      purpose =
        (fun r ->
          at_least "average stack depth at GC" ~min:200. (S.avg_depth_at_gc r.stats)) };
    { name = "mutation";
      kind = Batch { program = "peg"; factor = 2; k = 4.; tune = Fun.id };
      purpose =
        (fun r ->
          at_least "pointer updates" ~min:200_000.
            (float_of_int r.stats.S.pointer_updates)) };
    { name = "tenured-churn";
      kind =
        Batch
          { program = "pia"; factor = 8; k = 1.5;
            tune =
              (fun c ->
                { c with
                  Gsc.Config.major_kind = Collectors.Generational.Mark_sweep;
                  tenured_backend = Alloc.Backend.Free_list }) };
      purpose =
        (fun r ->
          if r.stats.S.major_kind <> "mark_sweep" then
            Some ("major collector is " ^ r.stats.S.major_kind ^ ", not mark_sweep")
          else at_least "major collections" ~min:1. (float_of_int r.stats.S.major_gcs)) };
    { name = "serve";
      kind = Serve;
      purpose =
        (fun r ->
          match r.report with
          | None -> Some "no serve report"
          | Some rep ->
            List.find_map
              (fun (tr : Workloads.Serve.tenant_report) ->
                at_least
                  (Printf.sprintf "tenant %d samples beyond p99.9" tr.tenant)
                  ~min:10. (float_of_int (beyond_p999 tr.requests)))
              rep.Workloads.Serve.tenants) } ]

let find name = List.find_opt (fun w -> w.name = name) all

(* --- measured pieces --- *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* A fixed ALU loop timed before every rep: it does no memory traffic,
   so its drift is the host's (frequency, co-tenants), not the code's. *)
let spin_ns () =
  let t0 = Support.Units.now_ns () in
  let x = ref 1 in
  for _ = 1 to 1_000_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFF_FFFF
  done;
  ignore (Sys.opaque_identity !x);
  float_of_int (Support.Units.now_ns () - t0)

let serve_config () =
  let base = Gsc.Config.generational ~budget_bytes:(4 * 1024 * 1024) in
  { base with
    Gsc.Config.nursery_bytes_max = 32 * 1024;
    tenured_backend = Alloc.Backend.Free_list;
    global_slots = max base.Gsc.Config.global_slots tenants }

let serve ~seed ~rate rt =
  Workloads.Serve.run rt ~tenants ~sessions ~requests ~rate_rps:rate ~seed ()

(* One rep on a fresh runtime: [Ok] only when the program's own
   self-check and the post-run heap check both pass.  The heap check
   runs after the clock stops. *)
let exec cfg body =
  let t0 = now () in
  let rt = R.create cfg in
  Fun.protect ~finally:(fun () -> R.destroy rt) @@ fun () ->
  match body rt with
  | exception e -> Error ("self-check raised " ^ Printexc.to_string e)
  | report ->
    let run_s = now () -. t0 in
    (match R.check_heap rt with
     | exception e -> Error ("check_heap raised " ^ Printexc.to_string e)
     | _ ->
       Ok { run_s; stats = R.stats rt; stub_hits = R.marker_stub_hits rt; report })

(* The deterministic work a rep did.  Every rep of one workload, traced
   or not, must reproduce it exactly. *)
let fingerprint r =
  let s = r.stats in
  [ ("words_allocated", s.S.words_allocated);
    ("words_copied", s.S.words_copied);
    ("words_promoted", s.S.words_promoted);
    ("words_pretenured", s.S.words_pretenured);
    ("words_region_scanned", s.S.words_region_scanned);
    ("words_marked", s.S.words_marked);
    ("words_swept_free", s.S.words_swept_free);
    ("words_los_freed", s.S.words_los_freed);
    ("words_scanned", S.words_scanned s);
    ("frames_decoded", s.S.frames_decoded);
    ("frames_reused", s.S.frames_reused);
    ("slots_decoded", s.S.slots_decoded);
    ("minor_gcs", s.S.minor_gcs);
    ("major_gcs", s.S.major_gcs);
    ("barrier_entries", s.S.barrier_entries_processed);
    ("pointer_updates", s.S.pointer_updates);
    ("mutator_ops", s.S.mutator_ops);
    ("stub_hits", r.stub_hits) ]
  @
  match r.report with
  | None -> []
  | Some rep -> [ ("checksum", rep.Workloads.Serve.checksum) ]

(* --- set-up: steps 1 and 2 of the protocol --- *)

let program b =
  let workload = Workloads.Registry.find b.program in
  (workload, Harness.Runs.scale ~factor:(float_of_int b.factor) workload)

(* What a measured rep runs on its fresh runtime. *)
let body ~seed w =
  match w.kind with
  | Batch b ->
    let workload, scale = program b in
    fun rt ~rate:_ -> workload.Workloads.Spec.run rt ~scale; None
  | Serve -> fun rt ~rate -> Some (serve ~seed ~rate rt)

type setup = {
  config : Gsc.Config.t option;  (** [None] when every set-up rep failed *)
  calibrate_s : float;           (** 0 for serve, which has a fixed budget *)
  setup_s : float list;          (** these three: one per good rep *)
  profile_s : float list;
  policy_s : float list;
  checksum : int option;         (** serve: the profiled run's checksum *)
  setup_failures : string list;
}

(* Calibrate Min once (users pick a heap size instead, so this is not
   set-up time), then rebuild the configuration [reps] times from
   nothing, each time re-running the profiled training run and deriving
   the policy from its profile. *)
let set_up ~reps ~seed w =
  let calibrate_s, rebuild =
    match w.kind with
    | Batch b ->
      let workload, scale = program b in
      let (_ : int), calibrate_s =
        timed (fun () -> Harness.Calibrate.max_live_bytes ~workload ~scale)
      in
      ( calibrate_s,
        fun () ->
          Harness.Runs.reset ();
          let (_ : Heap_profile.Profile_data.t), profile_s =
            timed (fun () -> Harness.Runs.profile_of ~workload ~scale)
          in
          let (_ : Gsc.Pretenure.t), policy_s =
            timed (fun () -> Harness.Runs.policy_of ~workload ~scale ~scan_elision:false)
          in
          let cfg =
            Harness.Runs.config_for ~workload ~scale ~technique:Harness.Runs.Pretenure
              ~k:b.k
          in
          (b.tune cfg, None, profile_s, policy_s) )
    | Serve ->
      ( 0.,
        fun () ->
          let rt = R.create { (serve_config ()) with Gsc.Config.profiling = true } in
          let (checksum, data), profile_s =
            timed (fun () ->
              Fun.protect ~finally:(fun () -> R.destroy rt) @@ fun () ->
              let rep = serve ~seed ~rate:fixed_rps rt in
              R.observe_exit_deaths rt;
              (rep.Workloads.Serve.checksum, Option.get (R.profile rt)))
          in
          let policy, policy_s =
            timed (fun () ->
              Gsc.Pretenure.of_profile data ~cutoff:Harness.Runs.cutoff
                ~min_objects:Harness.Runs.min_objects ~scan_elision:false)
          in
          ( { (serve_config ()) with Gsc.Config.pretenure = policy },
            Some checksum, profile_s, policy_s ) )
  in
  let outcomes =
    List.init reps (fun i ->
      Gc.full_major ();
      match timed rebuild with
      | exception e -> Error (Printf.sprintf "rep %d raised %s" (i + 1) (Printexc.to_string e))
      | built -> Ok built)
  in
  let good = List.filter_map Result.to_option outcomes in
  let first f = match good with b :: _ -> Some (f b) | [] -> None in
  { config = first (fun ((cfg, _, _, _), _) -> cfg);
    calibrate_s;
    setup_s = List.map snd good;
    profile_s = List.map (fun ((_, _, p, _), _) -> p) good;
    policy_s = List.map (fun ((_, _, _, q), _) -> q) good;
    checksum = Option.join (first (fun ((_, c, _, _), _) -> c));
    setup_failures = List.filter_map (function Error m -> Some m | Ok _ -> None) outcomes }

(* [in_child f] runs [f] in a forked child and returns its result.  The
   paper's profiling run is a separate execution; forking keeps its
   allocations out of this process's heap, so [peak_mem_mb] measures
   the measured runs and not the training run. *)
let in_child f =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let oc = Unix.out_channel_of_descr wr in
    let v = try Ok (f ()) with e -> Error (Printexc.to_string e) in
    Marshal.to_channel oc v [];
    close_out oc;
    Unix._exit 0
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let v =
      try Marshal.from_channel ic
      with End_of_file | Failure _ -> Error "the child process died"
    in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    v

(* --- ring-traced reps: step 5 --- *)

let phases = [ "roots"; "barrier"; "region_scan"; "copy"; "mark"; "sweep"; "los_sweep" ]

(* What one ring-traced rep says about each layer. *)
type traced = {
  phase_us : (string * float) list;
  pause_p50 : float;
  pause_p99 : float;
  major_max : float;
  pause_total : float;
  events : int;
}

let run_traced cfg body =
  let metrics = Obs.Metrics.create () in
  let slo = Obs.Slo.create Obs.Slo.no_target in
  let fl = Obs.Flight.create ~capacity:1024 () in
  let res = Obs.Trace.with_ring ~metrics ~slo fl (fun () -> exec cfg body) in
  Result.map
    (fun r ->
      let pc = Obs.Slo.percentiles slo in
      let get kind f = match List.assoc_opt kind pc with Some p -> f p | None -> 0. in
      ( r,
        { phase_us =
            List.map
              (fun p -> (p, float_of_int (Obs.Metrics.get_counter metrics ("phase_us." ^ p))))
              phases;
          pause_p50 = get "all" (fun p -> p.Obs.Profile.p50);
          pause_p99 = get "all" (fun p -> p.Obs.Profile.p99);
          major_max = get "major" (fun p -> p.Obs.Profile.max_us);
          pause_total = get "all" (fun p -> p.Obs.Profile.total_us);
          events = Obs.Flight.stored fl } ))
    res

(* --- the metrics --- *)

(* End-to-end metrics are what a user of the collector sees; per-layer
   metrics attribute them; aux lines carry the samples behind an
   estimator and are never compared on their own. *)
type tier = E2e | Layer | Aux

type metric = { name : string; value : float; unit_ : string; tier : tier }

(* Everything the protocol measured, for [metrics_of]. *)
type measured = {
  su : setup;
  cfg : Gsc.Config.t;
  timed : (rep * float) list;    (** good timed reps, with their offered rate *)
  spins : float list;
  peak_mem_mb : float;
  traced : (rep * traced) list;  (** good traced reps *)
  fail_frac : float;
}

let ratio a b = if b = 0. then 0. else a /. b

(* [m.timed] must not be empty. *)
let metrics_of m =
  let out = ref [] in
  let emit ?(tier = Layer) name unit_ value =
    out := { name; value; unit_; tier } :: !out
  in
  let estimator name unit_ samples pick =
    emit ~tier:E2e name unit_ (pick samples);
    let q1, q3 = Stats.quartiles samples in
    emit ~tier:Aux (name ^ ".median") unit_ (Stats.median samples);
    emit ~tier:Aux (name ^ ".q1") unit_ q1;
    emit ~tier:Aux (name ^ ".q3") unit_ q3;
    emit ~tier:Aux (name ^ ".n") "reps" (float_of_int (List.length samples))
  in
  let run_s = List.map (fun (r, _) -> r.run_s) m.timed in
  let gc_s = List.map (fun (r, _) -> S.gc_seconds r.stats) m.timed in
  estimator "setup_s" "s" m.su.setup_s Stats.median;
  estimator "run_s" "s" run_s Stats.minimum;
  estimator "gc_s" "s" gc_s Stats.minimum;
  estimator "peak_mem_mb" "MB" [ m.peak_mem_mb ] Stats.minimum;
  emit ~tier:Aux "fail_frac" "ratio" m.fail_frac;
  let r0 = fst (List.hd m.timed) in
  let s = r0.stats in
  let fi = float_of_int in
  let count name v = emit name "count" (fi v) in
  let words name v = emit name "words" (fi v) in
  let run_min = Stats.minimum run_s in
  (* mutator *)
  count "mutator.ops" s.S.mutator_ops;
  words "mutator.words_allocated" s.S.words_allocated;
  count "mutator.pointer_updates" s.S.pointer_updates;
  count "mutator.stub_hits" r0.stub_hits;
  emit "mutator.ns_per_op" "ns"
    (1e9 *. ratio (run_min -. Stats.minimum gc_s) (fi s.S.mutator_ops));
  (* roots *)
  count "roots.frames_decoded" s.S.frames_decoded;
  count "roots.frames_reused" s.S.frames_reused;
  emit "roots.reuse_pct" "%"
    (100. *. ratio (fi s.S.frames_reused) (fi (s.S.frames_decoded + s.S.frames_reused)));
  count "roots.slots_decoded" s.S.slots_decoded;
  (* barrier *)
  count "barrier.entries" s.S.barrier_entries_processed;
  emit "barrier.entries_per_update" "ratio"
    (ratio (fi s.S.barrier_entries_processed) (fi s.S.pointer_updates));
  (* region scan and pretenuring *)
  words "region_scan.words" s.S.words_region_scanned;
  words "pretenure.words" s.S.words_pretenured;
  count "pretenure.sites" (List.length (Gsc.Pretenure.pretenured_sites m.cfg.Gsc.Config.pretenure));
  (* copy *)
  words "copy.words_copied" s.S.words_copied;
  words "copy.words_promoted" s.S.words_promoted;
  words "copy.words_scanned" (S.words_scanned s);
  (* mark-sweep *)
  words "mark.words_marked" s.S.words_marked;
  words "sweep.words_freed" s.S.words_swept_free;
  words "los.words_freed" s.S.words_los_freed;
  (* allocation backend: gauges after the last collection *)
  words "alloc.tenured_free_words" s.S.tenured_free_words;
  count "alloc.tenured_free_blocks" s.S.tenured_free_blocks;
  words "alloc.tenured_largest_hole" s.S.tenured_largest_hole;
  (* collections *)
  count "gc.minors" s.S.minor_gcs;
  count "gc.majors" s.S.major_gcs;
  words "gc.max_live_words" s.S.max_live_words;
  (* set-up *)
  emit "setup.profile_s" "s" (Stats.median m.su.profile_s);
  emit "setup.policy_s" "s" (Stats.median m.su.policy_s);
  emit "setup.calibrate_s" "s" m.su.calibrate_s;
  (* host *)
  emit "host.spin_ns" "ns" (Stats.median m.spins);
  (* serve: latency from the fixed-rate reps, capacity from the
     saturating ones; 0 on the batch programs, which serve no requests *)
  let reports rate =
    List.filter_map (fun (r, x) -> if x = rate then r.report else None) m.timed
  in
  let lat f =
    match reports fixed_rps with
    | [] -> 0.
    | l ->
      Stats.median
        (List.map (fun rep -> Stats.maximum (List.map f rep.Workloads.Serve.tenants)) l)
  in
  emit "serve.lat_p50_us" "us" (lat (fun t -> t.Workloads.Serve.p50_lat_us));
  emit "serve.lat_p99_us" "us" (lat (fun t -> t.Workloads.Serve.p99_lat_us));
  emit "serve.lat_p999_us" "us" (lat (fun t -> t.Workloads.Serve.p999_lat_us));
  emit "serve.capacity_rps" "1/s"
    (match reports saturating_rps with
     | [] -> 0.
     | l -> Stats.maximum (List.map (fun r -> r.Workloads.Serve.sustained_rps) l));
  let samples, checksum =
    match r0.report with
    | None -> (0, 0)
    | Some rep ->
      ( List.fold_left
          (fun n (t : Workloads.Serve.tenant_report) -> min n t.requests)
          max_int rep.Workloads.Serve.tenants,
        rep.Workloads.Serve.checksum )
  in
  count "serve.samples_per_tenant" samples;
  emit ~tier:Aux "serve.checksum" "id" (fi checksum);
  (* the traced split: times minimised over reps, like run_s *)
  if m.traced <> [] then begin
    let over f = List.map (fun (_, t) -> f t) m.traced in
    let phase p = Stats.minimum (over (fun t -> List.assoc p t.phase_us)) in
    emit "roots.us" "us" (phase "roots");
    emit "barrier.us" "us" (phase "barrier");
    emit "region_scan.us" "us" (phase "region_scan");
    emit "copy.us" "us" (phase "copy");
    emit "copy.us_per_gc" "us" (ratio (phase "copy") (fi (S.gcs s)));
    emit "mark.us" "us" (phase "mark");
    emit "sweep.us" "us" (phase "sweep");
    emit "los_sweep.us" "us" (phase "los_sweep");
    emit "gc.pause_p50_us" "us" (Stats.median (over (fun t -> t.pause_p50)));
    emit "gc.pause_p99_us" "us" (Stats.median (over (fun t -> t.pause_p99)));
    emit "gc.pause_major_max_us" "us" (Stats.median (over (fun t -> t.major_max)));
    emit "gc.unattributed_pct" "%"
      (Stats.median
         (over (fun t ->
            let attributed = List.fold_left (fun a (_, us) -> a +. us) 0. t.phase_us in
            100. *. (1. -. ratio attributed t.pause_total))));
    let traced_min = Stats.minimum (List.map (fun (r, _) -> r.run_s) m.traced) in
    emit "trace.overhead_pct" "%" (100. *. (ratio traced_min run_min -. 1.));
    count "trace.events" (snd (List.hd m.traced)).events
  end;
  List.rev !out

(* --- the protocol --- *)

type plan = {
  setup_reps : int;
  warmup : bool;
  seconds : float;   (** timed reps run until this much time has passed... *)
  min_timed : int;   (** ...and at least this many have run *)
  traced_reps : int; (** 0: end-to-end metrics only *)
}

let plan ~seconds ~trace =
  { setup_reps = 5; warmup = true; seconds; min_timed = 3;
    traced_reps = (if trace then 3 else 0) }

let smoke_plan =
  { setup_reps = 1; warmup = false; seconds = 0.; min_timed = 1; traced_reps = 1 }

type outcome = {
  metrics : metric list;   (** empty when no timed rep succeeded *)
  attempted : int;         (** reps run, set-up reps included *)
  failed : int;            (** reps that failed a check *)
  failures : string list;  (** one line per failed rep or tripped guard *)
}

let run ~plan ~seed w =
  let attempted = ref plan.setup_reps and failed = ref 0 in
  let failures = ref [] in
  let fail what msg = failures := Printf.sprintf "%s: %s" what msg :: !failures in
  let fail_rep what msg = incr failed; fail what msg in
  let su =
    match in_child (fun () -> set_up ~reps:plan.setup_reps ~seed w) with
    | Ok su -> su
    | Error msg ->
      { config = None; calibrate_s = 0.; setup_s = []; profile_s = []; policy_s = [];
        checksum = None;
        setup_failures = List.init plan.setup_reps (fun _ -> msg) }
  in
  List.iter (fail_rep "set-up") su.setup_failures;
  let reference = ref None in
  (* every measured rep goes through here: counted, checked against the
     first good rep's work, and dropped from the estimators on failure *)
  let check what res =
    incr attempted;
    match res with
    | Error msg -> fail_rep what msg; None
    | Ok (r, x) ->
      let fp = fingerprint r in
      let mismatch =
        match !reference with
        | None ->
          reference := Some fp;
          (match (su.checksum, List.assoc_opt "checksum" fp) with
           | Some c0, Some c when c <> c0 ->
             Some (Printf.sprintf "checksum %d differs from the profiled set-up run's %d" c c0)
           | _ -> None)
        | Some first ->
          List.find_map
            (fun (k, v) ->
              let v0 = List.assoc k first in
              if v = v0 then None else Some (Printf.sprintf "%s = %d, first rep had %d" k v v0))
            fp
      in
      (match mismatch with
       | Some msg -> fail_rep what msg; None
       | None -> Some (r, x))
  in
  let metrics =
    match su.config with
    | None -> []
    | Some cfg ->
      let body = body ~seed w in
      let is_serve = match w.kind with Serve -> true | Batch _ -> false in
      let untraced what rate =
        check what (Result.map (fun r -> (r, rate)) (exec cfg (body ~rate)))
      in
      (* 3. warm-up: caches, lazy set-up, the OCaml heap's growth *)
      if plan.warmup then
        ignore (untraced "warm-up rep" (if is_serve then saturating_rps else fixed_rps));
      (* 4. timed reps, untraced; serve alternates the fixed and the
         saturating rate, so the two samples interleave in time *)
      let timed = ref [] and spins = ref [] and peak_mem_mb = ref 0. in
      let t_start = now () in
      let i = ref 0 in
      while
        !i < plan.min_timed || now () -. t_start < plan.seconds || (is_serve && !i mod 2 = 1)
      do
        Gc.full_major ();
        spins := spin_ns () :: !spins;
        let rate = if is_serve && !i mod 2 = 1 then saturating_rps else fixed_rps in
        incr i;
        Option.iter
          (fun rr -> timed := rr :: !timed)
          (untraced (Printf.sprintf "timed rep %d" !i) rate);
        (* read after a fixed number of reps: the heap can grow once more
           over a long window, and how many reps fit depends on the host *)
        if !i = plan.min_timed then
          peak_mem_mb :=
            float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
      done;
      (* 5. ring-traced reps: the per-layer split *)
      let traced = ref [] in
      for j = 1 to plan.traced_reps do
        Gc.full_major ();
        Option.iter
          (fun rt -> traced := rt :: !traced)
          (check (Printf.sprintf "traced rep %d" j) (run_traced cfg (body ~rate:fixed_rps)))
      done;
      (match List.rev !timed with
       | [] -> fail "timed reps" "no rep completed"; []
       | timed ->
         Option.iter (fail "purpose guard") (w.purpose (fst (List.hd timed)));
         metrics_of
           { su; cfg; timed; spins = !spins; peak_mem_mb = !peak_mem_mb;
             traced = List.rev !traced;
             fail_frac = ratio (float_of_int !failed) (float_of_int !attempted) })
  in
  let failures = List.rev !failures in
  List.iter (fun f -> prerr_endline (w.name ^ " FAIL " ^ f)) failures;
  { metrics; attempted = !attempted; failed = !failed; failures }
