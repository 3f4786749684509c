(* Pieces of a collection cycle shared by the semispace and generational
   collectors: the roots phase, the copy engine, per-site allocation and
   survival accounting, the profiling death sweep and the allocation
   epilogue. *)

(* the collection clock, in integer nanoseconds: passing and summing
   it boxes nothing *)
let now () = Support.Units.now_ns ()

let us ns = float_of_int ns *. 1e-3

(* --- the roots phase --- *)

let roots ~hooks ~stats ~traced ~t0 ~roots mode =
  Rstack.Root.Buf.clear roots;
  let res = hooks.Hooks.scan_stack mode roots in
  hooks.Hooks.visit_globals mode roots;
  Gc_stats.add_scan stats res;
  let t1 = now () in
  stats.Gc_stats.stack_ns <- stats.Gc_stats.stack_ns + (t1 - t0);
  if traced then
    Obs.Trace.phase ~name:"roots" ~dur_us:(us (t1 - t0))
      ~counters:[ ("roots", Rstack.Root.Buf.length roots) ];
  t1

(* --- engine dispatch ---

   [parallelism = 1] keeps the sequential [Cheney] engine, bit-for-bit
   the oracle the equivalence tests pin against.  The parallel drain
   runs only under immediate promotion (an aging nursery needs the
   [remember] re-recording the packet protocol does not carry) and
   without backend-placed promotion (chunk carving and backend
   placement clash). *)
type engine =
  | Seq of Cheney.t
  | Par of Par_drain.t

let parallel ~parallelism = parallelism > 1

let chunk_opt chunk_words = if chunk_words > 0 then Some chunk_words else None

let engine ~mem ~from ~to_space ?aging ?remember ?promote_alloc ?card_scan
    ~los ~trace_los ~promoting ~eager ~site_tallies ~parallelism ~mode
    ~chunk_words () =
  if parallel ~parallelism && aging = None && promote_alloc = None then
    Par
      (Par_drain.create ~mem ~from ~to_space ~los ~trace_los ~promoting
         ~eager ~site_tallies ?card_scan ~parallelism ~mode
         ?chunk_words:(chunk_opt chunk_words) ())
  else
    Seq
      (Cheney.create ~mem ~from ~to_space ?aging ?remember ?promote_alloc
         ~eager ~site_tallies ~los ~trace_los ~promoting ())

let in_from engine a =
  match engine with
  | Seq e -> Cheney.in_from e a
  | Par p -> Par_drain.in_from p a

let visit_loc engine loc =
  match engine with
  | Seq e -> Cheney.visit_loc e loc
  | Par p -> Par_drain.add_loc p loc

let visit_fields engine base =
  match engine with
  | Seq e -> Cheney.visit_object_fields e base
  | Par p -> Par_drain.add_obj p base

let visit_card engine ~scan card =
  match engine with
  | Seq e -> scan e card
  | Par p -> Par_drain.add_card p card

let copied = function
  | Seq e -> Cheney.words_copied e
  | Par p -> Par_drain.words_copied p

let promoted = function
  | Seq e -> Cheney.words_promoted e
  | Par p -> Par_drain.words_promoted p

let survivals = function
  | Seq e -> Cheney.site_survivals e
  | Par p -> Par_drain.site_survivals p

(* visit the collected roots and run the drain to its fixpoint; the
   parallel engine receives the roots as packets via the batch export.
   Drain scan work lands in the per-domain slots; the sequential engine
   is domain 0. *)
let drain engine ~stats roots =
  match engine with
  | Seq e ->
    Rstack.Root.Buf.iter roots Cheney.visit_root e;
    Cheney.drain e;
    Gc_stats.add_scanned stats ~domain:0 (Cheney.words_scanned e)
  | Par p ->
    let batch =
      Rstack.Root.Batch.create ~capacity:32 ~emit:(Par_drain.add_roots p)
    in
    Rstack.Root.Buf.iter roots Rstack.Root.Batch.push batch;
    Rstack.Root.Batch.flush batch;
    Par_drain.run p;
    Array.iteri
      (fun domain words -> Gc_stats.add_scanned stats ~domain words)
      (Par_drain.per_worker_scanned p)

let trace_copy engine ~with_promoted ~dur_us =
  let scanned, steals =
    match engine with
    | Seq e -> (Cheney.words_scanned e, [])
    | Par p -> (Par_drain.words_scanned p, [ ("steals", Par_drain.steals p) ])
  in
  Obs.Trace.phase ~name:"copy" ~dur_us
    ~counters:
      ((("copied_w", copied engine)
        :: (if with_promoted then [ ("promoted_w", promoted engine) ] else []))
       @ (("scanned_w", scanned) :: steals));
  (* per-domain [copy.dN] spans: each worker's virtual-time cost and
     work counters, the scaling evidence the trace carries for parallel
     drains *)
  match engine with
  | Seq _ -> ()
  | Par p ->
    Array.iter
      (fun r ->
        Obs.Trace.phase
          ~name:(Printf.sprintf "copy.d%d" r.Par_drain.w_id)
          ~dur_us:(float_of_int r.Par_drain.w_cost_ns /. 1e3)
          ~counters:
            [ ("copied_w", r.Par_drain.w_copied);
              ("scanned_w", r.Par_drain.w_scanned);
              ("packets", r.Par_drain.w_packets);
              ("steals", r.Par_drain.w_steals) ])
      (Par_drain.report p)

(* --- per-site accounting (tracing, the control plane, the profiler) --- *)

let site_tallies hooks = Obs.Trace.detailed () || hooks.Hooks.profiling

let emit_survivals survivals =
  if Obs.Trace.detailed () then
    Site_tally.iter survivals (fun ~site ~objects ~firsts ~sum ->
      Obs.Trace.site_survival ~site ~objects ~first_objects:firsts ~words:sum)

let tally enabled = if enabled then Some (Site_tally.create ()) else None

let rows = function
  | None -> Site_tally.empty
  | Some tab -> tab

let clear = function
  | None -> ()
  | Some tab -> Site_tally.clear tab

let emit_site_allocs sites =
  match sites with
  | Some tab when Obs.Trace.detailed () ->
    Site_tally.iter tab (fun ~site ~objects ~firsts:_ ~sum ->
      Obs.Trace.site_alloc ~site ~objects ~words:sum)
  | Some _ | None -> ()

let flush_site_allocs sites consume =
  emit_site_allocs sites;
  consume (rows sites);
  clear sites

let end_collection ~alloc_sites ~deaths =
  clear alloc_sites;
  clear deaths

(* --- profiling death sweep --- *)

let profile_sweep ~mem ~deaths ~stats ~traced ~since space =
  match deaths with
  | None -> ()
  | Some deaths ->
    Cheney.sweep_dead ~mem ~space ~deaths;
    let dt = now () - since in
    stats.Gc_stats.profile_ns <- stats.Gc_stats.profile_ns + dt;
    if traced then
      Obs.Trace.phase ~name:"profile_sweep" ~dur_us:(us dt) ~counters:[]

(* --- allocation epilogue: header, zeroed payload, counters --- *)

(* every allocation of the runtime passes through [count_alloc] and
   [finish_alloc]; the release build's inlining budget (dune-workspace)
   inlines them into the collectors' allocation entries, with the header
   and space helpers they call *)
let count_alloc ~stats ~(sites : Site_tally.t option) ~tag ~site ~words =
  stats.Gc_stats.words_allocated <- stats.Gc_stats.words_allocated + words;
  stats.Gc_stats.objects_allocated <- stats.Gc_stats.objects_allocated + 1;
  if tag = Mem.Header.tag_record then
    stats.Gc_stats.words_alloc_records <-
      stats.Gc_stats.words_alloc_records + words
  else
    stats.Gc_stats.words_alloc_arrays <-
      stats.Gc_stats.words_alloc_arrays + words;
  match sites with
  | None -> ()
  | Some tab -> Site_tally.note tab ~site ~first:false ~words

let finish_alloc ~stats ~sites cells ~tag ~len ~mask ~site ~birth base =
  Mem.Header.init_object_c cells ~off:(Mem.Addr.offset base) ~tag ~len ~mask
    ~site ~birth;
  count_alloc ~stats ~sites ~tag ~site ~words:(Mem.Header.header_words () + len);
  base
