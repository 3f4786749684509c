type sink =
  | Channel of out_channel
  | Sink_buffer of Buffer.t
  | Ring of Flight.t

let channel oc = Channel oc
let buffer b = Sink_buffer b
let ring fl = Ring fl

(* A record captured during a pause, serialised after it.  The envelope
   (seq / timestamp / collection ordinal / emitting domain) is stamped
   at emit time, so the deferred output is byte-identical to immediate
   writing. *)
type pending = {
  p_seq : int;
  p_t_us : float;
  p_gc : int;
  p_dom : int;
  p_ev : Event.t;
}

(* The asynchronous writer: a dedicated domain that drains a queue of
   stamped records so serialisation and channel writes leave the
   emitting domain entirely.  A domain rather than a systhread —
   systhreads timeshare inside one domain, so a "background" systhread
   writer would still steal mutator time on its home domain. *)
type writer = {
  wq : pending Queue.t;        (* guarded by the state's [mu] *)
  mutable w_quit : bool;
  mutable w_busy : bool;       (* a record is being written right now *)
  mutable w_dom : unit Domain.t option;
}

type state = {
  sink : sink;
  metrics : Metrics.t option;
  slo : Slo.t option;
  clock : unit -> float;
  t0 : float;
  mu : Mutex.t;
      (* one lock for the whole tracer: emitters stamp and queue under
         it, the sync path also serialises under it, and the async
         writer pops under it (writing outside it).  Tracing is off the
         drain hot path, so a single uncontended lock beats a finer
         scheme. *)
  work : Condition.t;          (* async: records queued, or quit *)
  idle : Condition.t;          (* async: queue drained and writer idle *)
  writer : writer option;
  scratch : Buffer.t;   (* one line is built here, then written whole;
                           owned by the writer domain in async mode *)
  pending : pending Support.Vec.t;
      (* sync mode: records buffered while inside a collection; flushed
         outside the pause so serialisation and channel writes do not
         lengthen it *)
  mutable in_pause : bool;
  mutable seq : int;
  mutable gc : int;
}

let state : state option ref = ref None

let enabled () = match !state with None -> false | Some _ -> true

(* Full tracing vs flight recording: a ring sink keeps the control-plane
   events (gc_begin/gc_end, phases, scans, breaches...) but the per-site
   data-plane accounting — survival tables, alloc deltas, censuses —
   gates on [detailed], so an always-on flight recorder stays inside the
   ≤2% overhead bar instead of paying full-trace cost. *)
let detailed () =
  match !state with
  | Some { sink = Channel _ | Sink_buffer _; _ } -> true
  | Some { sink = Ring _; _ } | None -> false

let write_one st p =
  match st.sink with
  | Ring fl ->
    Flight.store fl ~seq:p.p_seq ~t_us:p.p_t_us ~gc:p.p_gc ~dom:p.p_dom
      p.p_ev;
    (match st.metrics with
     | None -> ()
     | Some m -> Metrics.record m p.p_ev)
  | Channel _ | Sink_buffer _ ->
    Buffer.clear st.scratch;
    Event.write st.scratch ~seq:p.p_seq ~t_us:p.p_t_us ~gc:p.p_gc
      ~dom:p.p_dom p.p_ev;
    (match st.sink with
     | Channel oc -> Buffer.output_buffer oc st.scratch
     | Sink_buffer b -> Buffer.add_buffer b st.scratch
     | Ring _ -> ());
    (match st.metrics with
     | None -> ()
     | Some m -> Metrics.record m p.p_ev)

(* Pops under the lock, writes outside it (the scratch buffer and the
   sink are the writer's alone in async mode), and signals [idle] when
   the queue runs dry so [flush] can line up on a drained sink. *)
let writer_loop st wr =
  Mutex.lock st.mu;
  let rec loop () =
    match Queue.take_opt wr.wq with
    | Some p ->
      wr.w_busy <- true;
      Mutex.unlock st.mu;
      write_one st p;
      Mutex.lock st.mu;
      wr.w_busy <- false;
      if Queue.is_empty wr.wq then Condition.broadcast st.idle;
      loop ()
    | None ->
      if wr.w_quit then Mutex.unlock st.mu
      else begin
        Condition.wait st.work st.mu;
        loop ()
      end
  in
  loop ()

let enable ?metrics ?slo ?(clock = Unix.gettimeofday) ?(async = false) sink =
  let st =
    { sink;
      metrics;
      slo;
      clock;
      t0 = clock ();
      mu = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      writer =
        (if async then
           Some { wq = Queue.create (); w_quit = false; w_busy = false;
                  w_dom = None }
         else None);
      scratch = Buffer.create 256;
      pending = Support.Vec.create ();
      in_pause = false;
      seq = 0;
      gc = 0 }
  in
  (match st.writer with
   | Some wr -> wr.w_dom <- Some (Domain.spawn (fun () -> writer_loop st wr))
   | None -> ());
  state := Some st

let flush_pending st =
  if not (Support.Vec.is_empty st.pending) then begin
    Support.Vec.iter (write_one st) st.pending;
    Support.Vec.clear st.pending
  end

(* Under [st.mu]. *)
let flush_locked st =
  match st.writer with
  | None -> flush_pending st
  | Some wr ->
    while (not (Queue.is_empty wr.wq)) || wr.w_busy do
      Condition.wait st.idle st.mu
    done

let flush () =
  match !state with
  | None -> ()
  | Some st ->
    Mutex.lock st.mu;
    flush_locked st;
    Mutex.unlock st.mu

let disable () =
  (match !state with
   | Some st ->
     (match st.writer with
      | Some wr ->
        Mutex.lock st.mu;
        wr.w_quit <- true;
        Condition.broadcast st.work;
        Mutex.unlock st.mu;
        (* the writer drains the queue before honouring quit *)
        Option.iter Domain.join wr.w_dom
      | None ->
        Mutex.lock st.mu;
        flush_pending st;
        Mutex.unlock st.mu);
     (match st.sink with
      | Channel oc -> Stdlib.flush oc
      | Sink_buffer _ | Ring _ -> ())
   | None -> ());
  state := None

let with_sink ?metrics ?slo ?clock ?async sink f =
  enable ?metrics ?slo ?clock ?async sink;
  Fun.protect ~finally:disable f

let with_file ?metrics ?slo ?async path f =
  let oc = open_out path in
  (* [with_sink]'s [disable] already drains the pending queue, but be
     defensive about ordering: flush whatever the tracer still buffers
     before the channel closes, so even an exceptional exit mid-pause
     leaves a complete, schema-valid trace on disk. *)
  Fun.protect
    ~finally:(fun () ->
      flush ();
      close_out oc)
  @@ fun () -> with_sink ?metrics ?slo ?async (Channel oc) f

let with_buffer ?metrics ?slo ?clock ?async buf f =
  with_sink ?metrics ?slo ?clock ?async (Sink_buffer buf) f

let with_ring ?metrics ?slo ?clock fl f =
  with_sink ?metrics ?slo ?clock (Ring fl) f

(* Emit = stamp the envelope and queue the record, all under the
   tracer's lock, so emitters are safe from any domain.  With the async
   writer the queue hand-off is the whole cost; in sync mode a
   [gc_begin, gc_end] window holds the queue (the concurrent-sink
   discipline: the pause only pays the stamp and the push) and
   everywhere else it drains immediately, so non-collection records
   never sit in the buffer. *)
let emit st e =
  Mutex.lock st.mu;
  (match e with
   | Event.Gc_begin _ ->
     st.gc <- st.gc + 1;
     st.in_pause <- true
   | _ -> ());
  let t_us = (st.clock () -. st.t0) *. 1e6 in
  let push_ev ev =
    let p =
      { p_seq = st.seq;
        p_t_us = t_us;
        p_gc = st.gc;
        p_dom = (Domain.self () :> int);
        p_ev = ev }
    in
    st.seq <- st.seq + 1;
    match st.writer with
    | Some wr ->
      Queue.push p wr.wq;
      Condition.signal st.work
    | None -> Support.Vec.push st.pending p
  in
  push_ev e;
  (match e with Event.Gc_end _ -> st.in_pause <- false | _ -> ());
  (* The attached SLO monitor folds the stamped event; a breach becomes
     an [slo_breach] record right behind the breaching [gc_end], sharing
     its timestamp and collection ordinal.  Stamping under the lock we
     already hold keeps [seq] monotone; the user callback runs after the
     unlock (it may dump a flight ring or write files). *)
  let breaches =
    match st.slo with
    | None -> []
    | Some slo ->
      let brs = Slo.observe slo ~gc:st.gc ~t_us e in
      List.iter
        (fun (br : Slo.breach) ->
          push_ev
            (Event.Slo_breach
               { rule = br.rule;
                 observed_us = br.observed_us;
                 limit_us = br.limit_us;
                 window_us = br.window_us }))
        brs;
      brs
  in
  (match st.writer with
   | Some _ -> ()
   | None -> if not st.in_pause then flush_pending st);
  Mutex.unlock st.mu;
  match st.slo with
  | None -> ()
  | Some slo -> List.iter (Slo.notify slo) breaches

(* Every emitter reads [!state] exactly once and returns immediately
   when tracing is off: the disabled cost is one load and one branch. *)

let gc_begin ~kind ~nursery_w ~tenured_w ~los_w =
  match !state with
  | None -> ()
  | Some st -> emit st (Event.Gc_begin { kind; nursery_w; tenured_w; los_w })

let gc_end ~kind ~pause_us ~copied_w ~promoted_w ~live_w =
  match !state with
  | None -> ()
  | Some st ->
    emit st (Event.Gc_end { kind; pause_us; copied_w; promoted_w; live_w })

let phase ~name ~dur_us ~counters =
  match !state with
  | None -> ()
  | Some st -> emit st (Event.Phase { name; dur_us; counters })

let stack_scan ~mode ~valid_prefix ~depth ~decoded ~reused ~slots ~roots =
  match !state with
  | None -> ()
  | Some st ->
    emit st
      (Event.Stack_scan
         { mode; valid_prefix; depth; decoded; reused; slots; roots })

let site_survival ~site ~objects ~first_objects ~words =
  match !state with
  | None -> ()
  | Some st ->
    emit st (Event.Site_survival { site; objects; first_objects; words })

let site_alloc ~site ~objects ~words =
  match !state with
  | None -> ()
  | Some st -> emit st (Event.Site_alloc { site; objects; words })

let census ~site ~objects ~words ~ages =
  match !state with
  | None -> ()
  | Some st -> emit st (Event.Census { site; objects; words; ages })

let pretenure ~site ~words =
  match !state with
  | None -> ()
  | Some st -> emit st (Event.Pretenure { site; words })

let marker_place ~installed ~depth =
  match !state with
  | None -> ()
  | Some st -> emit st (Event.Marker_place { installed; depth })

let unwind ~target_depth =
  match !state with
  | None -> ()
  | Some st -> emit st (Event.Unwind { target_depth })

let backend_stats ~region ~backend ~live_w ~free_w ~free_blocks ~largest_hole =
  match !state with
  | None -> ()
  | Some st ->
    emit st
      (Event.Backend_stats
         { region; backend; live_w; free_w; free_blocks; largest_hole })

let slo_breach ~rule ~observed_us ~limit_us ~window_us =
  match !state with
  | None -> ()
  | Some st ->
    emit st (Event.Slo_breach { rule; observed_us; limit_us; window_us })

let policy_update ~knob ~old_value ~new_value ~window ~signals =
  match !state with
  | None -> ()
  | Some st ->
    emit st (Event.Policy_update { knob; old_value; new_value; window; signals })
