type barrier_kind =
  | Barrier_ssb
  | Barrier_remset
  | Barrier_cards

type major_kind =
  | Copying
  | Mark_sweep

let major_kind_name = function
  | Copying -> "copying"
  | Mark_sweep -> "mark_sweep"

let major_kind_of_string = function
  | "copying" -> Some Copying
  | "mark_sweep" | "mark-sweep" -> Some Mark_sweep
  | _ -> None

type config = {
  nursery_bytes_max : int;
  tenured_target_liveness : float;
  budget_bytes : int;
  los_threshold_words : int;
  barrier : barrier_kind;
  tenure_threshold : int;
  parallelism : int;
  parallelism_mode : Par_drain.mode;
  chunk_words : int;   (* 0 = the engine's default *)
  eager_evac : bool;   (* hierarchical (eager-child) evacuation *)
  census_period : int;
  tenured_backend : Alloc.Backend.kind;
  los_backend : Alloc.Backend.kind;
  major_kind : major_kind;
  adaptive : bool;             (* run the control plane at collection
                                  boundaries (docs/ADAPTIVE.md) *)
  adaptive_target_p99_us : float;
      (* p99 pause target feeding the controller's pause rules;
         0 disables them (the SLO target when one is attached) *)
  pretenured_init : int list;  (* sites the static pretenure policy
                                  already routes old, seeding the
                                  controller's knob state *)
}

let default_config ~budget_bytes =
  { nursery_bytes_max = 512 * 1024;
    tenured_target_liveness = 0.3;
    budget_bytes;
    los_threshold_words = 512;
    barrier = Barrier_ssb;
    tenure_threshold = 1;
    parallelism = 1;
    parallelism_mode = Par_drain.Virtual;
    chunk_words = 0;
    eager_evac = false;
    census_period = 0;
    tenured_backend = Alloc.Backend.Bump;
    los_backend = Alloc.Backend.Free_list;
    major_kind = Copying;
    adaptive = false;
    adaptive_target_p99_us = 0.;
    pretenured_init = [] }

type barrier =
  | B_ssb of Ssb.t
  | B_remset of Remset.t
  | B_cards of Card_table.t * Ssb.t
      (* cards for the tenured space; the buffer catches large-object
         locations, which the card table does not cover *)

type t = {
  mem : Mem.Memory.t;
  hooks : Hooks.t;
  cfg : config;
  stats : Gc_stats.t;
  mutable nursery : Mem.Space.t;
  nursery_words : int;
  mutable tenured : Mem.Space.t;
  mutable tenured_be : Alloc.Backend.packed;
      (* placement policy over [tenured]; rebuilt when a major swaps the
         space.  The copy engines keep bumping the space frontier
         directly (their scan pointer needs contiguity), so the backend
         only serves pretenured allocations. *)
  tenured_phys : int;         (* physical block size of the tenured area *)
  tenured_cap : int;          (* hard budget share for tenured + large *)
  mutable major_trigger : int; (* soft trigger from the liveness policy *)
  los : Los.t;
  barrier : barrier;
  mutable cards_covered_to : Mem.Addr.t;
      (* tenured prefix whose objects are in the card crossing map *)
  mutable pretenure_from : Mem.Addr.t;
      (* start of the tenured region allocated into directly since the
         last collection; scanned for young pointers at the next one.
         Copying majors only — under the mark-sweep major pretenured
         grants can land in reclaimed holes anywhere in the space, so
         [new_pretenured] records them individually instead *)
  new_pretenured : Mem.Addr.t Support.Vec.t;
      (* pretenured object bases since the last collection
         ([major_kind = Mark_sweep] only; stays empty otherwise) *)
  mutable live : int;          (* live words after the last major *)
  mutable in_gc : bool;
  mutable collections : int;   (* collection ordinal (minors + majors) *)
  age_table : Age_table.t;
      (* birth ordinals of the tenured regions, maintained only under
         [census_period > 0] *)
  los_births : (Mem.Addr.t, int) Hashtbl.t option;
      (* large-object birth ordinals; [Some] iff [census_period > 0] *)
  alloc_sites : Cycle.site_allocs;
      (* per-site (objects, words) allocated since the last [site_alloc]
         flush — allocated when the trace layer is recording in detail at
         collector creation (same gating as the engines' survival
         tables), or when the control plane needs the rows *)
  mutable tenure_dyn : int;
      (* the live tenure threshold: starts at [cfg.tenure_threshold],
         moved by the controller's tenure actuator; every policy read
         (scan mode, aging, retry bound, parallel gate) goes through
         this field *)
  controller : Control.Controller.t option;  (* [Some] iff [cfg.adaptive] *)
  mutable compact_pending : bool;
      (* a "compact" decision waiting for [collect] to honour it
         (mark-sweep major only) *)
  pret_tally : (int, int) Hashtbl.t option;
      (* per-site pretenured-allocation counts since the last
         collection, feeding the controller's demotion rule; [Some] iff
         [cfg.adaptive] *)
}

let now () = Unix.gettimeofday ()

let nursery_words_of cfg =
  let wpb = Mem.Memory.bytes_per_word in
  let budget_w = cfg.budget_bytes / wpb in
  max 64 (min (cfg.nursery_bytes_max / wpb) (budget_w / 4))

(* Single source of truth for the controller's parameters and seed, so
   the offline replay (gc-serve's self-check, the fixed-point tests) can
   rebuild exactly the controller [create] wires up. *)
let adaptive_setup cfg =
  let nursery_w = nursery_words_of cfg in
  ( Control.Params.default
      ?target_p99_us:
        (if cfg.adaptive_target_p99_us > 0. then
           Some cfg.adaptive_target_p99_us
         else None)
      ~tenure_max:(min 4 Mem.Header.max_age)
      ~can_compact:(cfg.major_kind = Mark_sweep)
      ~nursery_w (),
    nursery_w )

let create mem ~hooks ~stats cfg =
  if cfg.budget_bytes <= 0 then invalid_arg "Generational.create: empty budget";
  if cfg.tenure_threshold < 1 || cfg.tenure_threshold > Mem.Header.max_age then
    invalid_arg "Generational.create: bad tenure threshold";
  if cfg.parallelism < 1 || cfg.parallelism > Gc_stats.max_domains then
    invalid_arg "Generational.create: bad parallelism";
  if cfg.census_period < 0 then
    invalid_arg "Generational.create: negative census period";
  if cfg.chunk_words <> 0 && cfg.chunk_words < 2 * (Mem.Header.header_words ()) then
    invalid_arg "Generational.create: chunk_words too small";
  (* the parallel drain carves copy chunks off the space frontier, which
     is incompatible with backend-placed promotion (chunk tails would
     not be registered as backend grants and the live-word accounting
     would drift); the mark-sweep major therefore requires the
     sequential engine *)
  if cfg.major_kind = Mark_sweep && cfg.parallelism > 1 then
    invalid_arg "Generational.create: mark_sweep major requires parallelism = 1";
  let wpb = Mem.Memory.bytes_per_word in
  let budget_w = cfg.budget_bytes / wpb in
  let nursery_words = nursery_words_of cfg in
  let tenured_cap = max 128 ((budget_w - nursery_words) / 2) in
  (* a parallel drain wastes to-space on chunk tails and fillers; grant
     the physical block the worst-case slop on top of the sequential
     sizing so the copy reserve still cannot overflow *)
  let par_headroom =
    if cfg.parallelism > 1 then
      Par_drain.space_headroom
        ?chunk_words:(if cfg.chunk_words > 0 then Some cfg.chunk_words else None)
        ~parallelism:cfg.parallelism
        ~copy_bound:(tenured_cap + nursery_words) ()
    else 0
  in
  let tenured_phys = tenured_cap + nursery_words + 64 + par_headroom in
  let tenured = Mem.Space.create mem ~words:tenured_phys in
  stats.Gc_stats.major_kind <- major_kind_name cfg.major_kind;
  let controller =
    if cfg.adaptive then begin
      let params, _ = adaptive_setup cfg in
      Some
        (Control.Controller.create params ~nursery_limit_w:nursery_words
           ~tenure_threshold:cfg.tenure_threshold
           ~pretenured:cfg.pretenured_init)
    end
    else None
  in
  { mem;
    hooks;
    cfg;
    stats;
    nursery = Mem.Space.create mem ~words:nursery_words;
    nursery_words;
    tenured;
    tenured_be = Alloc.Registry.of_space cfg.tenured_backend mem tenured;
    tenured_phys;
    tenured_cap;
    major_trigger = tenured_cap;
    los = Los.create ~backend:cfg.los_backend mem;
    barrier =
      (match cfg.barrier with
       | Barrier_ssb -> B_ssb (Ssb.create ())
       | Barrier_remset -> B_remset (Remset.create ())
       | Barrier_cards ->
         B_cards (Card_table.create ~space_words:tenured_phys, Ssb.create ()));
    cards_covered_to = Mem.Space.base tenured;
    pretenure_from = Mem.Space.frontier tenured;
    new_pretenured = Support.Vec.create ();
    live = 0;
    in_gc = false;
    collections = 0;
    age_table = Age_table.create ();
    los_births = (if cfg.census_period > 0 then Some (Hashtbl.create 16) else None);
    alloc_sites = Cycle.site_allocs (Obs.Trace.detailed () || cfg.adaptive);
    tenure_dyn = cfg.tenure_threshold;
    controller;
    compact_pending = false;
    pret_tally = (if cfg.adaptive then Some (Hashtbl.create 16) else None) }

let in_nursery t a = Mem.Space.contains t.nursery a
let in_tenured t a = Mem.Space.contains t.tenured a
let nursery_bytes t = t.nursery_words * Mem.Memory.bytes_per_word
let nursery_limit_words t = Mem.Space.limit_words t.nursery
let tenure_threshold_now t = t.tenure_dyn
let live_words t = t.live + Los.live_words t.los
let stats t = t.stats

(* log one old-to-young edge at [loc] in the barrier's structure; the
   remembered set records the [owner] object, so an edge known only by
   its location is not remembered there *)
let barrier_record t ~loc ~owner =
  match t.barrier with
  | B_ssb ssb -> Ssb.record ssb loc
  | B_remset rs -> Option.iter (Remset.record rs) owner
  | B_cards (cards, overflow) ->
    if Mem.Space.contains t.tenured loc then
      Card_table.record cards ~offset:(Mem.Addr.diff loc (Mem.Space.base t.tenured))
    else Ssb.record overflow loc

let record_update t ~obj ~loc =
  t.stats.Gc_stats.pointer_updates <- t.stats.Gc_stats.pointer_updates + 1;
  (* only the remembered set reads the owner: record it here rather than
     allocate [Some obj] on every pointer store *)
  match t.barrier with
  | B_remset rs -> Remset.record rs obj
  | B_ssb _ | B_cards _ -> barrier_record t ~loc ~owner:None

(* extend the card crossing map over tenured objects added since the last
   collection (promotions and pretenured allocations) *)
let cover_new_tenured t =
  match t.barrier with
  | B_ssb _ | B_remset _ -> ()
  | B_cards (cards, _) ->
    (* the incremental cover assumes objects only appear at the
       frontier.  Under the mark-sweep major, hole reuse places objects
       below [cards_covered_to] and sweeps merge corpses into fillers
       (changing object starts), so the crossing map is rebuilt from the
       base: the full walk overwrites every covered card's entry, and
       fillers decode as ordinary pseudo-objects *)
    if t.cfg.major_kind = Mark_sweep then
      t.cards_covered_to <- Mem.Space.base t.tenured;
    let base = Mem.Space.base t.tenured in
    let cells = Mem.Memory.cells t.mem base in
    let base_off = Mem.Addr.offset base in
    let limit = Mem.Addr.diff (Mem.Space.frontier t.tenured) base in
    Card_table.cover cards (fun f ->
      let rec walk offset =
        if offset < limit then begin
          let words = Mem.Header.object_words_c cells ~off:(base_off + offset) in
          f ~offset ~words;
          walk (offset + words)
        end
      in
      walk (Mem.Addr.diff t.cards_covered_to base));
    t.cards_covered_to <- Mem.Space.frontier t.tenured

(* scan one marked card: walk the objects overlapping it and visit the
   pointer fields that lie inside the card window through [visit].  The
   tenured block is resolved once; headers decode straight from the cell
   array. *)
let scan_card t ~visit cards card =
  let base = Mem.Space.base t.tenured in
  let lo, hi = Card_table.card_range cards card in
  if lo < hi then
    match Card_table.crossing cards card with
    | None -> ()
    | Some start ->
      let cells = Mem.Memory.cells t.mem base in
      let base_off = Mem.Addr.offset base in
      let rec walk off =
        if off < hi then begin
          let aoff = base_off + off in
          let tag = Mem.Header.tag_c cells ~off:aoff in
          let len = Mem.Header.len_c cells ~off:aoff in
          let visit_window is_ptr_field =
            (* clip the field loop to the card window *)
            let i_lo = max 0 (lo - (off + (Mem.Header.header_words ()))) in
            let i_hi = min (len - 1) (hi - 1 - (off + (Mem.Header.header_words ()))) in
            for i = i_lo to i_hi do
              if is_ptr_field i then
                visit
                  (Mem.Addr.unsafe_add base (off + (Mem.Header.header_words ()) + i))
            done
          in
          if tag = Mem.Header.tag_ptr_array then visit_window (fun _ -> true)
          else if tag = Mem.Header.tag_record then begin
            let mask = Mem.Header.mask_c cells ~off:aoff in
            visit_window (fun i -> mask land (1 lsl i) <> 0)
          end;
          walk (off + (Mem.Header.header_words ()) + len)
        end
      in
      walk start

(* Scan one pretenured object of [words] at [a]: it was allocated
   directly into the tenured generation since the last collection and may
   hold young pointers.  Objects whose site the flow analysis cleared are
   skipped (Section 7.2); [visit_fields] is either the sequential in-place
   rewrite or the parallel drain's packet staging, so the region counters
   are identical either way. *)
let scan_pretenured t ~visit_fields cells a ~words =
  let off = Mem.Addr.offset a in
  if t.hooks.Hooks.site_needs_scan (Mem.Header.site_c cells ~off) then begin
    visit_fields a;
    t.stats.Gc_stats.words_region_scanned <-
      t.stats.Gc_stats.words_region_scanned + words
  end
  else
    t.stats.Gc_stats.words_region_skipped <-
      t.stats.Gc_stats.words_region_skipped + words

(* the pretenured region [pretenure_from, frontier_at_gc_start) *)
let scan_pretenured_region t ~visit_fields ~until =
  let cells = Mem.Memory.cells t.mem (Mem.Space.base t.tenured) in
  let limit = Mem.Addr.offset until in
  let rec walk a =
    let off = Mem.Addr.offset a in
    if off < limit then begin
      let words = Mem.Header.object_words_c cells ~off in
      (* chunk-tail fillers from earlier parallel drains are not
         pretenured objects; step over them without counting *)
      if not (Mem.Header.is_filler_c cells ~off) then
        scan_pretenured t ~visit_fields cells a ~words;
      walk (Mem.Addr.unsafe_add a words)
    end
  in
  walk t.pretenure_from

(* The mark-sweep counterpart of [scan_pretenured_region]: pretenured
   grants may sit in reclaimed holes anywhere in the space, so the
   collector scans exactly the bases recorded since the last collection,
   with the same site-elision filter and region counters.  Entries are
   consumed: once scanned, any surviving old-to-young edge is re-covered
   by the write barrier (or, under aging, by the engine's [remember]). *)
let scan_pretenured_list t ~visit_fields =
  let cells = Mem.Memory.cells t.mem (Mem.Space.base t.tenured) in
  Support.Vec.iter
    (fun a ->
      let words = Mem.Header.object_words_c cells ~off:(Mem.Addr.offset a) in
      scan_pretenured t ~visit_fields cells a ~words)
    t.new_pretenured;
  Support.Vec.clear t.new_pretenured

(* [visit_loc]/[visit_fields]/[card] abstract over the engine: the
   sequential path rewrites in place, the parallel path stages packets.
   The [processed] counter is bumped at enumeration time, so both paths
   report identical barrier statistics. *)
let drain_barrier t ~visit_loc ~visit_fields ~card =
  let processed = ref 0 in
  (match t.barrier with
   | B_ssb ssb ->
     Ssb.drain ssb (fun loc ->
       incr processed;
       (* a mutated slot inside the nursery needs no action: live nursery
          objects are traced wholesale *)
       if not (in_nursery t loc) then visit_loc loc)
   | B_remset rs ->
     Remset.drain rs (fun obj ->
       incr processed;
       if not (in_nursery t obj) then visit_fields obj)
   | B_cards (cards, overflow) ->
     Card_table.drain_marked cards (fun c ->
       incr processed;
       card cards c);
     Ssb.drain overflow (fun loc ->
       incr processed;
       if not (in_nursery t loc) then visit_loc loc));
  t.stats.Gc_stats.barrier_entries_processed <-
    t.stats.Gc_stats.barrier_entries_processed + !processed

(* Major-trigger gauge.  The copying major reclaims only by evacuating
   the whole space, so any word below the frontier is occupied until
   then.  The mark-sweep major returns dead words to the backend in
   place: granted-minus-freed ([Alloc.Backend.live_words]) is the honest
   gauge — frontier position alone would ratchet up and fire a major on
   every collection once holes start serving grants. *)
let occupancy t =
  match t.cfg.major_kind with
  | Copying -> Mem.Space.used_words t.tenured + Los.live_words t.los
  | Mark_sweep -> Alloc.Backend.live_words t.tenured_be + Los.live_words t.los

(* Per-site allocation rows, flushed at every collection start and at
   [destroy], so the trace's per-site allocation totals are exact over
   a fully-traced run.  The controller aggregates the same sorted rows
   the trace carries, which is what keeps its decisions replayable.
   Emission is gated on the detailed sinks — a flight ring must not be
   flooded with per-site rows just because the control plane keeps the
   table alive. *)
let flush_site_allocs t = Cycle.flush_site_allocs t.alloc_sites

(* --- heap census (census_period > 0, tracing only) --- *)

let age_bucket_labels = [| "0"; "1"; "2-3"; "4-7"; "8+" |]

let age_bucket age =
  if age <= 0 then 0
  else if age = 1 then 1
  else if age <= 3 then 2
  else if age <= 7 then 3
  else 4

(* Walk the whole live heap and emit one [census] record per site:
   live objects, live words, and object counts bucketed by collections
   survived.  Tenured ages come from the per-region {!Age_table},
   nursery survivors (aging configurations) from the header age, large
   objects from their recorded birth ordinal. *)
let emit_census t =
  let tab : (int, int * int * int array) Hashtbl.t = Hashtbl.create 32 in
  let note ~site ~words ~age =
    let objects, w, ages =
      match Hashtbl.find_opt tab site with
      | Some r -> r
      | None -> (0, 0, Array.make (Array.length age_bucket_labels) 0)
    in
    let b = age_bucket age in
    ages.(b) <- ages.(b) + 1;
    Hashtbl.replace tab site (objects + 1, w + words, ages)
  in
  let now_ord = t.collections in
  let walk_space space age_of =
    let base = Mem.Space.base space in
    let cells = Mem.Memory.cells t.mem base in
    let base_off = Mem.Addr.offset base in
    let limit = Mem.Addr.diff (Mem.Space.frontier space) base in
    let rec walk off =
      if off < limit then begin
        let aoff = base_off + off in
        let words = Mem.Header.object_words_c cells ~off:aoff in
        if not (Mem.Header.is_filler_c cells ~off:aoff) then
          note
            ~site:(Mem.Header.site_c cells ~off:aoff)
            ~words
            ~age:(age_of ~off ~aoff cells);
        walk (off + words)
      end
    in
    walk 0
  in
  walk_space t.tenured (fun ~off ~aoff:_ _ ->
    max 0 (now_ord - Age_table.born_at t.age_table ~off));
  if Mem.Space.used_words t.nursery > 0 then
    walk_space t.nursery (fun ~off:_ ~aoff cells ->
      Mem.Header.age_c cells ~off:aoff);
  Los.iter t.los (fun a ->
    let cells = Mem.Memory.cells t.mem a in
    let off = Mem.Addr.offset a in
    let born =
      match t.los_births with
      | Some tbl ->
        (match Hashtbl.find_opt tbl a with Some b -> b | None -> now_ord)
      | None -> now_ord
    in
    note ~site:(Mem.Header.site_c cells ~off)
      ~words:(Mem.Header.object_words_c cells ~off)
      ~age:(max 0 (now_ord - born)));
  let rows =
    Hashtbl.fold
      (fun site (objects, words, ages) acc ->
        (site, objects, words, ages) :: acc)
      tab []
  in
  List.iter
    (fun (site, objects, words, ages) ->
      let pairs = ref [] in
      for b = Array.length ages - 1 downto 0 do
        if ages.(b) > 0 then
          pairs := (age_bucket_labels.(b), ages.(b)) :: !pairs
      done;
      Obs.Trace.census ~site ~objects ~words ~ages:!pairs)
    (List.sort compare rows)

(* age-table upkeep at the end of a collection, plus the sampled census
   emission; the census itself additionally requires active tracing *)
let census_after_collection t ~traced =
  if t.cfg.census_period > 0 then begin
    Age_table.extend t.age_table
      ~upto:(Mem.Space.used_words t.tenured)
      ~born:t.collections;
    if traced && Obs.Trace.detailed ()
       && t.collections mod t.cfg.census_period = 0
    then emit_census t
  end

(* fragmentation snapshot at the end of a collection: gauges into
   [Gc_stats] always, one [backend_stats] record per managed region when
   tracing.  Placement-independent invariants (live words, collection
   counts) stay comparable across backends; these gauges carry the part
   that legitimately differs. *)
let sample_backend_stats t ~traced =
  let tf = Alloc.Backend.frag t.tenured_be in
  let lf = Los.frag t.los in
  t.stats.Gc_stats.tenured_free_words <- tf.Alloc.Backend.free_words;
  t.stats.Gc_stats.tenured_free_blocks <- tf.Alloc.Backend.free_blocks;
  t.stats.Gc_stats.tenured_largest_hole <- tf.Alloc.Backend.largest_hole;
  t.stats.Gc_stats.los_free_words <- lf.Alloc.Backend.free_words;
  t.stats.Gc_stats.los_free_blocks <- lf.Alloc.Backend.free_blocks;
  t.stats.Gc_stats.los_largest_hole <- lf.Alloc.Backend.largest_hole;
  if traced then begin
    Obs.Trace.backend_stats ~region:"tenured"
      ~backend:(Alloc.Backend.name t.tenured_be)
      ~live_w:(Alloc.Backend.live_words t.tenured_be)
      ~free_w:tf.Alloc.Backend.free_words
      ~free_blocks:tf.Alloc.Backend.free_blocks
      ~largest_hole:tf.Alloc.Backend.largest_hole;
    Obs.Trace.backend_stats ~region:"los" ~backend:(Los.backend_name t.los)
      ~live_w:(Los.live_words t.los)
      ~free_w:lf.Alloc.Backend.free_words
      ~free_blocks:lf.Alloc.Backend.free_blocks
      ~largest_hole:lf.Alloc.Backend.largest_hole
  end

(* --- the adaptive control plane (cfg.adaptive, docs/ADAPTIVE.md) --- *)

(* One decision, one actuator.  Knob state lives in the controller; this
   only pushes it into the machinery it steers.  The nursery limit is a
   soft cap ([Mem.Space.set_limit]) so a shrink never invalidates words
   already allocated; [set_pretenure] routes through the runtime's
   override table; "compact" arms a one-shot flag [collect] consumes. *)
let apply_decision t c (d : Control.Controller.decision) =
  match d.Control.Controller.d_knob with
  | "nursery_limit_w" ->
    Mem.Space.set_limit t.nursery (Control.Controller.nursery_limit_w c)
  | "tenure_threshold" ->
    t.tenure_dyn <- Control.Controller.tenure_threshold c
  | "compact" -> t.compact_pending <- true
  | knob ->
    (match String.index_opt knob ':' with
     | Some i ->
       let site =
         int_of_string (String.sub knob (i + 1) (String.length knob - i - 1))
       in
       t.hooks.Hooks.set_pretenure ~site
         ~enabled:(d.Control.Controller.d_new = 1)
     | None -> ())

(* Feed the collection that just ended to the controller and act on
   whatever decisions close the window.  Runs strictly after [gc_end]
   (so the [policy_update] records carry this collection's ordinal) and
   never between [gc_begin] and [gc_end] — the control plane stays off
   the pause's critical path and off the mutator's entirely.  Every
   field of the observation either appears verbatim in the trace or is
   derived from it, which is what lets [Control.Replay] re-run the fold
   offline and demand bit-for-bit the same decisions. *)
let control_after_collection t ~kind ~nursery_begin_w ~pause_us ~promoted_w
    ~live_w ~survivals ~alloc_rows =
  match t.controller with
  | None -> ()
  | Some c ->
    let pret_rows =
      match t.pret_tally with
      | None -> []
      | Some tab ->
        let rows = Hashtbl.fold (fun s n acc -> (s, n) :: acc) tab [] in
        Hashtbl.reset tab;
        List.sort compare rows
    in
    let tf = Alloc.Backend.frag t.tenured_be in
    let obs =
      { Control.Controller.o_gc = t.collections;
        o_kind = kind;
        o_nursery_w = nursery_begin_w;
        o_pause_us = pause_us;
        o_promoted_w = promoted_w;
        o_live_w = live_w;
        o_survival = survivals;
        o_alloc = alloc_rows;
        o_pretenured = pret_rows;
        o_tenured_live_w = Alloc.Backend.live_words t.tenured_be;
        o_tenured_free_w = tf.Alloc.Backend.free_words;
        o_tenured_largest_hole = tf.Alloc.Backend.largest_hole }
    in
    List.iter
      (fun (d : Control.Controller.decision) ->
        Obs.Trace.policy_update ~knob:d.Control.Controller.d_knob
          ~old_value:d.Control.Controller.d_old
          ~new_value:d.Control.Controller.d_new
          ~window:d.Control.Controller.d_window
          ~signals:d.Control.Controller.d_signals;
        apply_decision t c d)
      (Control.Controller.observe c obs)

(* --- the collection cycle ---

   Every collection runs one skeleton ([cycle]): the collection ordinal,
   [gc_begin], the per-site allocation flush, the roots phase, then the
   kind's reclaim step, then the census, the backend snapshot, the
   runtime's [after_collection] hook, [gc_end] and the control plane.
   A reclaim step owns the phase spans and timers between the roots
   phase and the epilogue, and hands back what the epilogue reports. *)

type reclaimed = {
  copied : int;
  promoted : int;
  live_w : int;
  survivals : (int * int * int * int) list;
}

let cycle t ~kind ~scan_mode reclaim =
  t.collections <- t.collections + 1;
  let traced = Obs.Trace.enabled () in
  let nursery_begin_w = Mem.Space.used_words t.nursery in
  if traced then
    Obs.Trace.gc_begin ~kind ~nursery_w:nursery_begin_w
      ~tenured_w:(Mem.Space.used_words t.tenured)
      ~los_w:(Los.live_words t.los);
  let alloc_rows = flush_site_allocs t in
  let t0 = now () in
  let roots, t1 =
    Cycle.roots ~hooks:t.hooks ~stats:t.stats ~traced ~t0 scan_mode
  in
  let r = reclaim t ~traced ~roots ~t1 in
  census_after_collection t ~traced;
  sample_backend_stats t ~traced;
  t.hooks.Hooks.after_collection ~full:(kind <> "minor");
  (* one reading feeds both the trace and the controller, so the value
     the offline replay recovers from [gc_end] is the value the online
     rules actually saw *)
  let pause_us = (now () -. t0) *. 1e6 in
  if traced then
    Obs.Trace.gc_end ~kind ~pause_us ~copied_w:r.copied
      ~promoted_w:r.promoted ~live_w:r.live_w;
  control_after_collection t ~kind ~nursery_begin_w ~pause_us
    ~promoted_w:r.promoted ~live_w:r.live_w ~survivals:r.survivals
    ~alloc_rows

(* the engine for a copy out of [in_from] into [to_space]; applied in
   full, as a partial application of [Cycle.engine] would allocate a
   chain of closures at every collection *)
let copy_engine t ~in_from ~to_space ?aging ?remember ?promote_alloc
    ?card_scan ~trace_los ~promoting () =
  Cycle.engine ~mem:t.mem ~in_from ~to_space ?aging ?remember ?promote_alloc
    ?card_scan ~los:(Some t.los) ~trace_los ~promoting ~eager:t.cfg.eager_evac
    ~site_tallies:(Obs.Trace.detailed () || t.cfg.adaptive)
    ~object_hooks:t.hooks.Hooks.object_hooks
    ~parallelism:t.cfg.parallelism ~mode:t.cfg.parallelism_mode
    ~chunk_words:t.cfg.chunk_words ()

(* The minor reclaim step: the barrier drain ([barrier_seconds], split
   into the [barrier] and [region_scan] spans), the nursery copy
   ([copy_seconds], the [copy] span) and the profiling death sweep. *)
let reclaim_minor t ~traced ~roots ~t1:_ =
  let tenured_frontier_at_start = Mem.Space.frontier t.tenured in
  (* under an aging nursery, survivors below the threshold evacuate into
     a fresh nursery semispace instead of being promoted *)
  let aging =
    if t.tenure_dyn > 1 then
      Some
        { Cheney.young_to = Mem.Space.create t.mem ~words:t.nursery_words;
          threshold = t.tenure_dyn }
    else None
  in
  let card_scan cards visit card = scan_card t ~visit cards card in
  let engine =
    copy_engine t ~in_from:(Mem.Space.contains t.nursery) ~to_space:t.tenured
      ?aging
      (* old-to-young edges that survive the collection (aging only)
         must re-enter the remembered set *)
      ~remember:(barrier_record t)
      ?promote_alloc:
        (* under the mark-sweep major promotions go through the
           placement policy so they can land in swept holes *)
        (match t.cfg.major_kind with
         | Copying -> None
         | Mark_sweep ->
           Some (fun words -> Alloc.Backend.alloc t.tenured_be words))
      ?card_scan:
        (match t.barrier with
         | B_cards (cards, _) -> Some (card_scan cards)
         | B_ssb _ | B_remset _ -> None)
      ~trace_los:false ~promoting:true ()
  in
  let entries0 = t.stats.Gc_stats.barrier_entries_processed in
  let region_scanned0 = t.stats.Gc_stats.words_region_scanned in
  let region_skipped0 = t.stats.Gc_stats.words_region_skipped in
  let t_barrier0 = now () in
  drain_barrier t ~visit_loc:(Cycle.visit_loc engine)
    ~visit_fields:(Cycle.visit_fields engine)
    ~card:(fun cards -> Cycle.visit_card engine ~scan:(card_scan cards));
  let t_mid = if traced then now () else t_barrier0 in
  (match t.cfg.major_kind with
   | Copying ->
     scan_pretenured_region t ~visit_fields:(Cycle.visit_fields engine)
       ~until:tenured_frontier_at_start
   | Mark_sweep ->
     (* pretenured grants are not contiguous above [pretenure_from] when
        holes serve them; scan the recorded bases instead *)
     scan_pretenured_list t ~visit_fields:(Cycle.visit_fields engine));
  let t_barrier1 = now () in
  t.stats.Gc_stats.barrier_seconds <-
    t.stats.Gc_stats.barrier_seconds +. (t_barrier1 -. t_barrier0);
  if traced then begin
    Obs.Trace.phase ~name:"barrier"
      ~dur_us:((t_mid -. t_barrier0) *. 1e6)
      ~counters:
        [ ("entries", t.stats.Gc_stats.barrier_entries_processed - entries0) ];
    Obs.Trace.phase ~name:"region_scan"
      ~dur_us:((t_barrier1 -. t_mid) *. 1e6)
      ~counters:
        [ ("scanned_w", t.stats.Gc_stats.words_region_scanned - region_scanned0);
          ("skipped_w", t.stats.Gc_stats.words_region_skipped - region_skipped0) ]
  end;
  Cycle.drain engine ~stats:t.stats roots;
  let t2 = now () in
  t.stats.Gc_stats.copy_seconds <-
    t.stats.Gc_stats.copy_seconds +. (t2 -. t_barrier1);
  let survivals = Cycle.survivals engine in
  if traced then begin
    Cycle.trace_copy engine ~with_promoted:true
      ~dur_us:((t2 -. t_barrier1) *. 1e6);
    Cycle.emit_survivals survivals
  end;
  Cycle.profile_sweep ~mem:t.mem ~hooks:t.hooks ~stats:t.stats ~traced
    ~since:t2 t.nursery;
  (match aging with
   | None -> Mem.Space.reset t.nursery
   | Some a ->
     (* the fresh semispace with the young survivors becomes the nursery *)
     Mem.Space.release t.nursery t.mem;
     t.nursery <- a.Cheney.young_to);
  (* both swap paths restore the full physical capacity; the adaptive
     soft limit must survive the swap *)
  (match t.controller with
   | None -> ()
   | Some c -> Mem.Space.set_limit t.nursery (Control.Controller.nursery_limit_w c));
  let copied = Cycle.copied engine and promoted = Cycle.promoted engine in
  t.stats.Gc_stats.words_copied <- t.stats.Gc_stats.words_copied + copied;
  t.stats.Gc_stats.words_promoted <- t.stats.Gc_stats.words_promoted + promoted;
  t.stats.Gc_stats.minor_gcs <- t.stats.Gc_stats.minor_gcs + 1;
  t.pretenure_from <- Mem.Space.frontier t.tenured;
  cover_new_tenured t;
  { copied; promoted; live_w = occupancy t; survivals }

let on_die t =
  match t.hooks.Hooks.object_hooks with
  | None -> fun ~site:_ ~birth:_ ~words:_ -> ()
  | Some h -> h.Hooks.on_die

let sweep_los t =
  let freed = Los.sweep t.los ~on_die:(on_die t) in
  t.stats.Gc_stats.words_los_freed <- t.stats.Gc_stats.words_los_freed + freed;
  freed

let trace_los_sweep t ~freed ~dur_us =
  Obs.Trace.phase ~name:"los_sweep" ~dur_us
    ~counters:[ ("live_w", Los.live_words t.los); ("freed_w", freed) ]

(* The accounting tail both majors share: collection count, live-size
   gauges, the next major's trigger, and dropping the birth records of
   swept large objects.  Returns the live total the epilogue reports. *)
let major_tail t =
  t.stats.Gc_stats.major_gcs <- t.stats.Gc_stats.major_gcs + 1;
  let live_total = live_words t in
  t.stats.Gc_stats.live_words_after_gc <- live_total;
  t.stats.Gc_stats.max_live_words <-
    max t.stats.Gc_stats.max_live_words live_total;
  (* tenured resizing policy: trigger the next major when occupancy
     exceeds live / target-liveness, clamped to the budget share *)
  let target =
    int_of_float (float_of_int live_total /. t.cfg.tenured_target_liveness)
  in
  t.major_trigger <- min t.tenured_cap (max (live_total + (live_total / 2) + 64) target);
  (match t.los_births with
   | None -> ()
   | Some tbl ->
     let dead =
       Hashtbl.fold
         (fun a _ acc -> if Los.contains t.los a then acc else a :: acc)
         tbl []
     in
     List.iter (Hashtbl.remove tbl) dead);
  live_total

(* The copying major's reclaim step: evacuate tenured space and the
   LOS's reachable objects into a fresh space, then sweep the LOS.  The
   whole step is [copy_seconds]; the spans split it into [copy] and
   [los_sweep]. *)
let reclaim_copying t ~traced ~roots ~t1 =
  assert (Mem.Space.used_words t.nursery = 0);
  let to_space = Mem.Space.create t.mem ~words:t.tenured_phys in
  let engine =
    copy_engine t ~in_from:(Mem.Space.contains t.tenured) ~to_space
      ~trace_los:true ~promoting:false ()
  in
  Cycle.drain engine ~stats:t.stats roots;
  let t_drain = if traced then now () else t1 in
  let los_freed_w = sweep_los t in
  let t2 = now () in
  t.stats.Gc_stats.copy_seconds <- t.stats.Gc_stats.copy_seconds +. (t2 -. t1);
  if traced then begin
    Cycle.trace_copy engine ~with_promoted:false
      ~dur_us:((t_drain -. t1) *. 1e6);
    trace_los_sweep t ~freed:los_freed_w ~dur_us:((t2 -. t_drain) *. 1e6)
  end;
  let survivals = Cycle.survivals engine in
  Cycle.emit_survivals survivals;
  Cycle.profile_sweep ~mem:t.mem ~hooks:t.hooks ~stats:t.stats ~traced
    ~since:t2 t.tenured;
  Mem.Space.release t.tenured t.mem;
  t.tenured <- to_space;
  (* the compaction emptied every hole: restart the placement policy
     over the fresh space (of_space backends own no segments, so the
     old value needs no teardown beyond dropping it) *)
  t.tenured_be <- Alloc.Registry.of_space t.cfg.tenured_backend t.mem to_space;
  t.pretenure_from <- Mem.Space.frontier to_space;
  (match t.barrier with
   | B_ssb _ | B_remset _ -> ()
   | B_cards (cards, overflow) ->
     (* the tenured space was rebuilt: restart the crossing map *)
     Card_table.reset cards;
     Ssb.clear overflow;
     t.cards_covered_to <- Mem.Space.base to_space);
  cover_new_tenured t;
  let copied = Cycle.copied engine in
  t.live <- copied;
  t.stats.Gc_stats.words_copied <- t.stats.Gc_stats.words_copied + copied;
  if t.cfg.census_period > 0 then begin
    (* the compaction destroyed region boundaries: re-cover the
       survivors as one conservatively-old region *)
    let born = Age_table.min_born t.age_table ~default:t.collections in
    Age_table.collapse t.age_table
      ~upto:(Mem.Space.used_words t.tenured)
      ~born
  end;
  { copied; promoted = 0; live_w = major_tail t; survivals }

(* The mark-sweep major's reclaim step: mark tenured + LOS in place,
   sweep dead tenured objects back into the backend as holes, sweep the
   LOS as usual.  The whole step is [copy_seconds]; the spans split it
   into [mark], [sweep] and [los_sweep].  Nothing moves, so — unlike
   the copying major — the tenured space, backend, barrier state and
   age table all survive untouched; the only card-table consequence is
   the crossing rebuild in [cover_new_tenured] (sweeps merge corpses
   into fillers, changing object starts). *)
let reclaim_mark_sweep t ~traced ~roots ~t1 =
  assert (Mem.Space.used_words t.nursery = 0);
  let eng =
    Mark_sweep.create ~mem:t.mem ~tenured:t.tenured ~los:t.los
      ~site_tallies:(Obs.Trace.detailed () || t.cfg.adaptive) ()
  in
  Support.Vec.iter (Mark_sweep.visit_root eng) roots;
  Mark_sweep.drain eng;
  Gc_stats.add_scanned t.stats ~domain:0 (Mark_sweep.words_scanned eng);
  t.stats.Gc_stats.words_marked <-
    t.stats.Gc_stats.words_marked + Mark_sweep.words_marked eng;
  let t_mark = now () in
  let survivals = Mark_sweep.site_survivals eng in
  if traced then begin
    Obs.Trace.phase ~name:"mark"
      ~dur_us:((t_mark -. t1) *. 1e6)
      ~counters:
        [ ("marked_w", Mark_sweep.words_marked eng);
          ("marked_objects", Mark_sweep.objects_marked eng);
          ("scanned_w", Mark_sweep.words_scanned eng) ];
    Cycle.emit_survivals survivals
  end;
  let swept_w = Mark_sweep.sweep eng ~backend:t.tenured_be ~on_die:(on_die t) in
  t.stats.Gc_stats.words_swept_free <-
    t.stats.Gc_stats.words_swept_free + swept_w;
  let t_sweep = now () in
  if traced then
    Obs.Trace.phase ~name:"sweep"
      ~dur_us:((t_sweep -. t_mark) *. 1e6)
      ~counters:
        [ ("freed_w", swept_w);
          ("live_w", Mark_sweep.words_marked_tenured eng) ];
  let los_freed_w = sweep_los t in
  let t2 = now () in
  t.stats.Gc_stats.copy_seconds <- t.stats.Gc_stats.copy_seconds +. (t2 -. t1);
  if traced then
    trace_los_sweep t ~freed:los_freed_w ~dur_us:((t2 -. t_sweep) *. 1e6);
  t.live <- Mark_sweep.words_marked_tenured eng;
  (* accounting cross-check: granted minus freed must equal the marked
     words once every corpse is back in the backend *)
  assert (Alloc.Backend.live_words t.tenured_be = t.live);
  let live_w = major_tail t in
  t.pretenure_from <- Mem.Space.frontier t.tenured;
  (* the list is consumed by the preceding minors and nothing allocates
     during the major; keep the invariant explicit *)
  Support.Vec.clear t.new_pretenured;
  cover_new_tenured t;
  { copied = 0; promoted = 0; live_w; survivals }

let minor_collection t =
  (* Skipping previously-scanned frames is sound only under immediate
     promotion ("objects in the nursery are always promoted", Section 5):
     with an aging nursery a cached frame may still reference a young
     object that this collection moves, so cached frames are replayed
     (decode reuse without the skip). *)
  let scan_mode =
    if t.tenure_dyn = 1 then Rstack.Scan.Minor else Rstack.Scan.Full
  in
  cycle t ~kind:"minor" ~scan_mode reclaim_minor

let major_collection t =
  cycle t ~kind:"major" ~scan_mode:Rstack.Scan.Full reclaim_copying

let major_mark_sweep t =
  cycle t ~kind:"major" ~scan_mode:Rstack.Scan.Full reclaim_mark_sweep

(* Fragmentation fallback gauge: can the tenured area absorb another
   nursery's worth of promotion?  Frontier headroom always counts.
   Holes are counted conservatively — an exhausted backend during
   promotion is fatal (the engine cannot trigger a compaction
   mid-collection), so only capacity that can serve *any* request size
   may count.  For {!Free_list} that is the largest coalesced hole, at
   half value (first-fit splits leave remainders a large request can no
   longer use); {!Size_class} holes are bucketed by size and reliably
   serve only same-class requests, and {!Bump} frees are unreusable by
   design, so both count zero — under [Bump] the mark-sweep
   configuration degenerates to mark-compact, with every reclamation
   deferred to the copying fallback. *)
let needs_compaction t =
  let frontier_room = t.tenured_phys - Mem.Space.used_words t.tenured in
  let reusable =
    match t.cfg.tenured_backend with
    | Alloc.Backend.Bump | Alloc.Backend.Size_class -> 0
    | Alloc.Backend.Free_list ->
      (Alloc.Backend.frag t.tenured_be).Alloc.Backend.largest_hole / 2
  in
  frontier_room + reusable < t.nursery_words

let collect t ~major =
  if t.in_gc then failwith "Generational: re-entrant collection";
  t.in_gc <- true;
  Fun.protect ~finally:(fun () -> t.in_gc <- false) (fun () ->
    minor_collection t;
    (* a "compact" decision from the control plane counts as
       fragmentation pressure: it forces the major now and routes the
       mark-sweep configuration through the copying compaction *)
    let pressure =
      t.cfg.major_kind = Mark_sweep
      && (needs_compaction t || t.compact_pending)
    in
    if major || occupancy t >= t.major_trigger || pressure then begin
      let compact_req = t.compact_pending in
      t.compact_pending <- false;
      (* under an aging nursery survivors may remain young; repeated
         minors age them out so the major sees an empty nursery (bounded
         by the maximum age) *)
      let guard = ref 0 in
      while
        Mem.Space.used_words t.nursery > 0 && !guard <= Mem.Header.max_age
      do
        incr guard;
        minor_collection t
      done;
      match t.cfg.major_kind with
      | Copying -> major_collection t
      | Mark_sweep ->
        major_mark_sweep t;
        (* in-place reclamation was not enough room (fragmentation, or a
           bump backend that cannot reuse): compact with the copying
           major, which rebuilds the backend over a fresh space *)
        if compact_req || needs_compaction t then major_collection t
    end)

let minor t = collect t ~major:false
let full t = collect t ~major:true

let exhausted what = raise (Budget.Exhausted ("Generational: " ^ what))

let is_array hdr =
  match hdr.Mem.Header.kind with
  | Mem.Header.Ptr_array | Mem.Header.Nonptr_array -> true
  | Mem.Header.Record _ -> false

let finish_alloc t hdr ~birth ~words base =
  Cycle.finish_alloc ~mem:t.mem ~stats:t.stats ~sites:t.alloc_sites hdr ~birth
    ~words base

let bump_alloc t space hdr ~birth =
  let words = Mem.Header.object_words hdr in
  match Mem.Space.alloc space words with
  | None -> None
  | Some base -> Some (finish_alloc t hdr ~birth ~words base)

(* pretenured grants go through the configured placement policy; with
   the default bump backend this is byte-identical to [bump_alloc] on
   the tenured space *)
let tenured_alloc t hdr ~birth =
  let words = Mem.Header.object_words hdr in
  match Alloc.Backend.alloc t.tenured_be words with
  | None -> None
  | Some base -> Some (finish_alloc t hdr ~birth ~words base)

let alloc t hdr ~birth =
  let words = Mem.Header.object_words hdr in
  if is_array hdr && words >= t.cfg.los_threshold_words then begin
    (* large object: collect first if the old generation is at its
       trigger, then place the object in the large-object space *)
    if occupancy t + words >= t.major_trigger then collect t ~major:true;
    if occupancy t + words > t.tenured_cap then
      exhausted "large object exceeds memory budget";
    let base = Los.alloc t.los hdr ~birth in
    Cycle.count_alloc ~stats:t.stats ~sites:t.alloc_sites hdr ~words;
    (match t.los_births with
     | None -> ()
     | Some tbl -> Hashtbl.replace tbl base t.collections);
    base
  end
  else begin
    if words > t.nursery_words then
      exhausted "object larger than the nursery";
    match bump_alloc t t.nursery hdr ~birth with
    | Some base -> base
    | None ->
      (* under an aging nursery, survivors occupy part of the fresh
         semispace; repeated minors age them up to promotion, so at most
         [tenure_threshold] collections free the space *)
      let rec retry attempts =
        collect t ~major:false;
        match bump_alloc t t.nursery hdr ~birth with
        | Some base -> base
        | None ->
          if Mem.Space.limit_words t.nursery < t.nursery_words then begin
            (* the adaptive soft limit is too tight for this object:
               open the physical nursery rather than fail — the
               controller's next resize decision re-imposes its limit *)
            Mem.Space.set_limit t.nursery t.nursery_words;
            match bump_alloc t t.nursery hdr ~birth with
            | Some base -> base
            | None ->
              if attempts >= t.tenure_dyn then
                exhausted "nursery exhausted after collection"
              else retry (attempts + 1)
          end
          else if attempts >= t.tenure_dyn then
            exhausted "nursery exhausted after collection"
          else retry (attempts + 1)
      in
      retry 1
  end

let alloc_pretenured t hdr ~birth =
  let words = Mem.Header.object_words hdr in
  if occupancy t + words >= t.major_trigger then collect t ~major:true;
  match tenured_alloc t hdr ~birth with
  | Some base ->
    t.stats.Gc_stats.words_pretenured <-
      t.stats.Gc_stats.words_pretenured + words;
    (* the object has already survived its "first collection" by fiat;
       mark it so the profiler does not double-count a later copy *)
    Mem.Header.set_survivor t.mem base;
    if t.cfg.major_kind = Mark_sweep then
      Support.Vec.push t.new_pretenured base;
    (match t.pret_tally with
     | None -> ()
     | Some tab ->
       let site = hdr.Mem.Header.site in
       Hashtbl.replace tab site
         (1 + Option.value ~default:0 (Hashtbl.find_opt tab site)));
    base
  | None -> exhausted "tenured area exhausted (pretenuring)"

let destroy t =
  (* allocations since the last collection have not been flushed yet;
     emit them so a fully-traced run's per-site totals are exact
     (emission is self-gated; the returned rows feed no controller —
     there is no collection left to decide for) *)
  ignore (flush_site_allocs t : (int * int * int) list);
  Mem.Space.release t.nursery t.mem;
  Mem.Space.release t.tenured t.mem;
  Los.destroy t.los
