(* The open-loop server workload: a multi-tenant request simulator with
   per-tenant allocation-lifetime profiles, driving the runtime the way a
   latency-sensitive server would.

   Tenants cycle through three lifetime profiles:

   - arena: every request builds scratch lists that die when the request
     returns — the per-request-arena shape (pure nursery churn);
   - cache: requests prepend entries to per-session cache lists that
     survive many requests and are evicted wholesale — the medium-lived
     session-cache shape that exercises promotion;
   - archive: mostly request-local scratch plus a slow, permanent cold
     append — the hot/cold mix whose cold tail is what pretenuring wants
     to place old.

   Arrivals follow a fixed open-loop schedule: request [i] arrives at
   virtual time [i / rate] regardless of how long earlier requests took.
   Requests are executed back-to-back in real time; each one's service
   time is measured on the wall clock (so it includes any GC pause it
   triggered) and folded into the virtual timeline as

     completion(i) = max(arrival(i), completion(i-1)) + service(i)
     latency(i)    = completion(i) - arrival(i)

   so queueing delay behind a long pause is charged to every queued
   request — the coordinated-omission-safe construction (a closed loop
   that measures only service time would hide exactly the pauses this
   workload exists to expose).

   Pause attribution: with an online monitor attached, the pause-count
   delta across a request body assigns each collection (count and
   duration) to the tenant whose request was in flight.

   The request stream is a pure function of [seed], and the checksum
   folds only simulated-heap reads, so runs under different collectors,
   backends or layouts must produce identical checksums — the bench
   suite asserts this across its serve.* configurations. *)

module R = Gsc.Runtime

type tenant_kind = Arena | Cache | Archive

let kind_name = function
  | Arena -> "arena"
  | Cache -> "cache"
  | Archive -> "archive"

let kind_of_tenant t =
  match t mod 3 with 0 -> Arena | 1 -> Cache | _ -> Archive

type tenant_report = {
  tenant : int;
  kind : string;
  requests : int;
  p50_lat_us : float;
  p99_lat_us : float;
  p999_lat_us : float;
  max_lat_us : float;
  pauses : int;
  pause_us : float;
  p99_pause_us : float;
  p999_pause_us : float;
}

type report = {
  tenants : tenant_report list;
  requests : int;
  horizon_us : float;
  sustained_rps : float;
  offered_rps : float;
  checksum : int;
}

(* a request's tenant is recorded in 16 bits *)
let max_tenants = 0x1_0000

(* every request's latency sits in one flat float array *)
let max_requests = Sys.max_floatarray_length

let run rt ?slo ?(phase_shift = 0) ~tenants ~sessions ~requests ~rate_rps
    ~seed () =
  if tenants < 1 then invalid_arg "Serve.run: tenants < 1";
  if tenants > max_tenants then invalid_arg "Serve.run: tenants > 65_536";
  if requests < 0 then invalid_arg "Serve.run: requests < 0";
  if requests > max_requests then
    invalid_arg "Serve.run: requests > Sys.max_floatarray_length";
  if sessions < 1 then invalid_arg "Serve.run: sessions < 1";
  if rate_rps <= 0. then invalid_arg "Serve.run: rate_rps <= 0";
  if phase_shift < 0 then invalid_arg "Serve.run: phase_shift < 0";
  let s_sess = R.register_site rt ~name:"serve.sessions" in
  let s_arena = R.register_site rt ~name:"serve.arena.scratch" in
  let s_cache = R.register_site rt ~name:"serve.cache.entry" in
  let s_tmp = R.register_site rt ~name:"serve.archive.scratch" in
  let s_cold = R.register_site rt ~name:"serve.archive.cold" in
  (* request frame: 0 = session table (arg), 1 = working list, 2 = cursor *)
  let k_req = R.register_frame rt ~name:"serve.request" ~slots:(Dsl.slots "ppp") in
  (* Per-tenant session tables are the workload's permanent roots; they
     live in the global root table (gc-serve sizes [global_slots] to the
     tenant count). *)
  for t = 0 to tenants - 1 do
    R.alloc_ptr_array rt ~site:s_sess ~dst:(R.to_global t) ~len:sessions
  done;
  (* 48-bit LCG (java.util.Random's constants): deterministic and
     host-independent, so the request stream is identical under every
     collector configuration. *)
  let rng = ref (seed land 0xFFFF_FFFF_FFFF) in
  let next () =
    rng := ((!rng * 0x5DEECE66D) + 0xB) land 0xFFFF_FFFF_FFFF;
    !rng lsr 16
  in
  let checksum = ref 0 in
  let fold v = checksum := (!checksum * 31 + v) land 0x3FFF_FFFF in
  (* the request bodies are built once per run; the caller passes the
     tenant's session table (null for arena requests) *)
  let arena_body () =
    let n = 8 + (next () mod 24) in
    R.move rt R.nil (R.to_slot 1);
    for j = 1 to n do
      Dsl.cons_int rt ~site:s_arena ~list:1 (j * 3)
    done;
    fold (Dsl.list_length rt ~list:1 ~cursor:2)
  in
  let cache_body session =
    R.load_field rt ~obj:(R.slot 0) ~idx:session ~dst:(R.to_slot 1);
    let adds = 2 + (next () mod 6) in
    for _ = 1 to adds do
      Dsl.cons_int rt ~site:s_cache ~list:1 (next () land 0xFF)
    done;
    fold (adds + Dsl.list_head_int rt ~list:1);
    (* wholesale eviction keeps caches bounded: roughly every 32nd
       update drops the session's whole list *)
    if next () mod 32 = 0 then R.move rt R.nil (R.to_slot 1);
    R.store_field rt ~obj:(R.slot 0) ~idx:session ~ptr:true (R.slot 1)
  in
  let archive_body session =
    R.move rt R.nil (R.to_slot 1);
    let n = 4 + (next () mod 12) in
    for j = 1 to n do
      Dsl.cons_int rt ~site:s_tmp ~list:1 j
    done;
    fold (Dsl.list_length rt ~list:1 ~cursor:2);
    (* the cold tail: roughly every 16th request archives one record
       permanently *)
    if next () mod 16 = 0 then begin
      R.load_field rt ~obj:(R.slot 0) ~idx:session ~dst:(R.to_slot 1);
      Dsl.cons_int rt ~site:s_cold ~list:1 (next () land 0xFFFF);
      R.store_field rt ~obj:(R.slot 0) ~idx:session ~ptr:true (R.slot 1)
    end
  in
  (* the run's record: request [i]'s latency in [lat.(i)] and its tenant
     in [tag], both sized before the loop; the attributed pauses' tenants
     go into [pause_tag], indexed from the monitor's count at the start *)
  let lat = Array.make requests 0. in
  let tag = Bytes.create (2 * requests) in
  let pause_base =
    match slo with Some s -> Obs.Slo.pause_count s | None -> 0
  in
  let pause_tag = ref Bytes.empty in
  let tick_us = 1e6 /. rate_rps in
  let completion = ref 0. in
  (* one clock read per request: request [i]'s service ends where
     request [i+1]'s begins, so it also covers the loop's own
     record-keeping between the two bodies *)
  let t0 = ref (Support.Units.now_ns ()) in
  for i = 0 to requests - 1 do
    let tenant = next () mod tenants in
    let session = next () mod sessions in
    (* phase shift (adaptive-plane scenario): from request [phase_shift]
       on, every tenant rotates to the next lifetime profile — arena
       traffic becomes cache traffic and so on — so the allocation
       behaviour the run opened with stops being the right one to tune
       for.  [0] (the default) never shifts.  The rotation changes which
       handler runs, not the request stream: the LCG draws stay in the
       same order, so checksums remain comparable across collector
       configurations at equal [phase_shift]. *)
    let kind =
      kind_of_tenant
        (if phase_shift > 0 && i >= phase_shift then tenant + 1 else tenant)
    in
    let before =
      match slo with Some s -> Obs.Slo.pause_count s | None -> 0
    in
    (match kind with
     | Arena -> R.call1 rt ~key:k_req R.nil arena_body ()
     | Cache -> R.call1 rt ~key:k_req (R.global tenant) cache_body session
     | Archive -> R.call1 rt ~key:k_req (R.global tenant) archive_body session);
    let t1 = Support.Units.now_ns () in
    let service_us = float_of_int (t1 - !t0) /. 1e3 in
    t0 := t1;
    (match slo with
     | Some s ->
       (* no collection runs between two request bodies, so the pauses
          from [pause_base] on are each attributed exactly once *)
       let after = Obs.Slo.pause_count s in
       let need = 2 * (after - pause_base) in
       if need > Bytes.length !pause_tag then begin
         let grown = Bytes.create (max need (2 * Bytes.length !pause_tag)) in
         Bytes.blit !pause_tag 0 grown 0 (2 * (before - pause_base));
         pause_tag := grown
       end;
       for p = before to after - 1 do
         Bytes.set_uint16_ne !pause_tag (2 * (p - pause_base)) tenant
       done
     | None -> ());
    let arrival = float_of_int i *. tick_us in
    let c = Float.max arrival !completion +. service_us in
    completion := c;
    lat.(i) <- c -. arrival;
    Bytes.set_uint16_ne tag (2 * i) tenant
  done;
  let horizon_us =
    Float.max !completion (float_of_int (max 0 (requests - 1)) *. tick_us)
  in
  let by_tenant = Obs.Profile.group_percentiles lat tag ~groups:tenants in
  let pauses_by_tenant =
    match slo with
    | None -> Array.make tenants None
    | Some s ->
      let durs =
        Array.init (Obs.Slo.pause_count s - pause_base) (fun p ->
          Obs.Slo.pause_dur s (pause_base + p))
      in
      Obs.Profile.group_percentiles durs !pause_tag ~groups:tenants
  in
  let tenant_reports =
    List.init tenants (fun t ->
      let requests, p50, p99, p999, mx =
        match by_tenant.(t) with
        | None -> (0, 0., 0., 0., 0.)
        | Some pc -> Obs.Profile.(pc.count, pc.p50, pc.p99, pc.p999, pc.max_us)
      in
      let pauses, pause_us, p99_p, p999_p =
        match pauses_by_tenant.(t) with
        | None -> (0, 0., 0., 0.)
        | Some pc ->
          Obs.Profile.(pc.count, pc.total_us, pc.p99, pc.p999)
      in
      { tenant = t;
        kind = kind_name (kind_of_tenant t);
        requests;
        p50_lat_us = p50;
        p99_lat_us = p99;
        p999_lat_us = p999;
        max_lat_us = mx;
        pauses;
        pause_us;
        p99_pause_us = p99_p;
        p999_pause_us = p999_p })
  in
  { tenants = tenant_reports;
    requests;
    horizon_us;
    sustained_rps =
      (if horizon_us <= 0. then 0.
       else float_of_int requests /. (horizon_us /. 1e6));
    offered_rps = rate_rps;
    checksum = !checksum }
