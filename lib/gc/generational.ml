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
    pretenured_init = [] }

type barrier =
  | B_ssb of Ssb.t
  | B_remset of Remset.t
  | B_cards of Card_table.t * Ssb.t
      (* cards for the tenured space; the buffer catches large-object
         locations, which the card table does not cover *)

(* What a reclaim step hands the collection epilogue: one record per
   collector, rewritten by every collection ([report]). *)
type reclaimed = {
  mutable copied : int;
  mutable promoted : int;
  mutable live_w : int;
  mutable survivals : Site_tally.t;
  mutable moved : bool;  (* [survivals] count copies, not marks *)
}

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
         space, since it holds the space's block handle.  The copy
         engines keep bumping the space frontier directly (their scan
         pointer needs contiguity), so the backend only serves
         pretenured allocations. *)
  tenured_phys : int;         (* physical block size of the tenured area *)
  mutable tenured_spare : int array;
      (* the zeroed cells of the tenured space the last copying major
         evacuated, re-issued as the next major's to-space; [[||]] until
         the first major (DESIGN.md §5p) *)
  mutable nursery_spare : int array;
      (* the same for the aging minor's nursery pair *)
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
  alloc_sites : Site_tally.t option;
      (* per-site (objects, words) allocated since the last collection —
         allocated when [site_tallies] holds at collector creation (the
         engines' survival tables use the same gate) *)
  deaths : Site_tally.t option;
      (* per-site (objects, Σ birth) one collection's sweeps found dead;
         [Some] iff the runtime is profiling ([Hooks.profiling]) *)
  roots : Rstack.Root.Buf.t;   (* the roots phase's buffer, reused *)
  controller : Control.Controller.t option;  (* [Some] iff [cfg.adaptive] *)
  marks : Bytes.t;
      (* the mark-sweep major's bitmap, one byte per tenured word, reused
         by every major (every tenured space is [tenured_phys] words);
         empty under the copying major *)
  mark_stack : Mem.Addr.t Support.Vec.t;
      (* the mark-sweep major's gray stack, reused by every major *)
  mutable minor_engine : Cycle.engine option;
      (* the sequential minor's copy engine, reset and reused by every
         minor under immediate promotion at parallelism 1 (aging and
         parallel minors build theirs per collection); each reset
         retargets it at the current tenured space, which a copying
         major replaces *)
  reclaimed : reclaimed;
  frag : Alloc.Backend.frag;  (* scratch for the backends' gauges *)
}

let now = Cycle.now

let nursery_words_of cfg =
  let wpb = Mem.Memory.bytes_per_word in
  let budget_w = cfg.budget_bytes / wpb in
  max 64 (min (cfg.nursery_bytes_max / wpb) (budget_w / 4))

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
    if cfg.adaptive then
      Some
        (Control.Controller.create (Control.Params.default ())
           ~pretenured:cfg.pretenured_init)
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
    tenured_spare = [||];
    nursery_spare = [||];
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
    alloc_sites = Cycle.tally (Cycle.site_tallies hooks || cfg.adaptive);
    deaths = Cycle.tally hooks.Hooks.profiling;
    roots = Rstack.Root.Buf.create ();
    controller;
    marks =
      (if cfg.major_kind = Mark_sweep then Bytes.create tenured_phys
       else Bytes.empty);
    mark_stack = Support.Vec.create ();
    minor_engine = None;
    reclaimed =
      { copied = 0; promoted = 0; live_w = 0; survivals = Site_tally.empty;
        moved = false };
    frag = { Alloc.Backend.free_words = 0; free_blocks = 0; largest_hole = 0 } }

let in_nursery t a = Mem.Space.contains t.nursery a
let in_tenured t a = Mem.Space.contains t.tenured a
let nursery_bytes t = t.nursery_words * Mem.Memory.bytes_per_word
let live_words t = t.live + Los.live_words t.los
let stats t = t.stats
let hooks t = t.hooks

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

(* only the remembered set reads the owner: record it here rather than
   allocate [Some obj] on every pointer store *)
let remember t ~obj ~loc =
  match t.barrier with
  | B_remset rs -> Remset.record rs obj
  | B_ssb _ | B_cards _ -> barrier_record t ~loc ~owner:None

let record_update t ~obj ~loc =
  t.stats.Gc_stats.pointer_updates <- t.stats.Gc_stats.pointer_updates + 1;
  remember t ~obj ~loc

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
    let offset = ref (Mem.Addr.diff t.cards_covered_to base) in
    while !offset < limit do
      let words = Mem.Header.object_words_c cells ~off:(base_off + !offset) in
      Card_table.cover cards ~offset:!offset ~words;
      offset := !offset + words
    done;
    t.cards_covered_to <- Mem.Space.frontier t.tenured

(* visit, through [visit env], the pointer fields of the object at
   space offset [off] that lie inside the card window [lo, hi); [masked]
   records take only the fields [mask] flags.  Toplevel with its
   environment as arguments, so a card scan allocates no closure per
   object. *)
let visit_window visit env base ~lo ~hi ~off ~len ~masked ~mask =
  let fbase = off + Mem.Header.header_words () in
  let i_lo = max 0 (lo - fbase) in
  let i_hi = min (len - 1) (hi - 1 - fbase) in
  for i = i_lo to i_hi do
    if (not masked) || mask land (1 lsl i) <> 0 then
      visit env (Mem.Addr.unsafe_add base (fbase + i))
  done

(* scan one marked card: walk the objects overlapping it and visit the
   pointer fields that lie inside the card window through [visit env].
   The tenured block is resolved once; headers decode straight from the
   cell array. *)
let scan_card t visit env cards card =
  let base = Mem.Space.base t.tenured in
  let lo = Card_table.card_lo cards card in
  let hi = Card_table.card_hi cards card in
  let start = Card_table.crossing cards card in
  if lo < hi && start >= 0 then begin
    let cells = Mem.Memory.cells t.mem base in
    let base_off = Mem.Addr.offset base in
    let off = ref start in
    while !off < hi do
      let aoff = base_off + !off in
      let tag = Mem.Header.tag_c cells ~off:aoff in
      let len = Mem.Header.len_c cells ~off:aoff in
      if tag = Mem.Header.tag_ptr_array then
        visit_window visit env base ~lo ~hi ~off:!off ~len ~masked:false
          ~mask:0
      else if tag = Mem.Header.tag_record then
        visit_window visit env base ~lo ~hi ~off:!off ~len ~masked:true
          ~mask:(Mem.Header.mask_c cells ~off:aoff);
      off := !off + Mem.Header.header_words () + len
    done
  end

(* the parallel drain hands its card scanner a visit closure *)
let apply_visit visit a = visit a

(* The pretenured objects were allocated directly into the tenured
   generation since the last collection and may hold young pointers.
   Under scan elision (Section 7.2) they are skipped and only counted:
   the mutator sent their young pointers through the barrier.  The
   sequential engine rewrites them in place, the parallel one stages a
   packet per object, and both count the same words, once per
   collection. *)
let count_region t ~elided words =
  if elided then
    t.stats.Gc_stats.words_region_skipped <-
      t.stats.Gc_stats.words_region_skipped + words
  else
    t.stats.Gc_stats.words_region_scanned <-
      t.stats.Gc_stats.words_region_scanned + words

let stage_nothing () (_ : Mem.Addr.t) = ()

(* the words of the non-filler objects in the region [pretenure_from,
   until), each handed to [stage env]: chunk-tail fillers from earlier
   parallel drains are not pretenured objects *)
let walk_region t ~until stage env =
  let base = t.pretenure_from in
  let cells = Mem.Space.cells t.tenured in
  let base_off = Mem.Addr.offset base in
  let limit = Mem.Addr.offset until in
  let words = ref 0 in
  let off = ref base_off in
  while !off < limit do
    let o = !off in
    let w = Mem.Header.object_words_c cells ~off:o in
    if not (Mem.Header.is_filler_c cells ~off:o) then begin
      words := !words + w;
      stage env (Mem.Addr.unsafe_add base (o - base_off))
    end;
    off := o + w
  done;
  !words

(* the pretenured region [pretenure_from, frontier_at_gc_start) *)
let scan_pretenured_region t engine ~until =
  let elided = t.hooks.Hooks.scan_elision in
  count_region t ~elided
    (match engine with
     | _ when elided -> walk_region t ~until stage_nothing ()
     | Cycle.Seq e -> Cheney.scan_region e t.pretenure_from ~until
     | Cycle.Par p -> walk_region t ~until Par_drain.add_obj p)

(* The mark-sweep counterpart of [scan_pretenured_region]: pretenured
   grants may sit in reclaimed holes anywhere in the space, so the
   collector scans exactly the bases recorded since the last collection,
   with the same elision switch and region counters.  Entries are
   consumed: once scanned, any surviving old-to-young edge is re-covered
   by the write barrier (or, under aging, by the engine's [remember]). *)
let scan_pretenured_list t engine =
  let cells = Mem.Space.cells t.tenured in
  let elided = t.hooks.Hooks.scan_elision in
  let words = ref 0 in
  for i = 0 to Support.Vec.length t.new_pretenured - 1 do
    let a = Support.Vec.get t.new_pretenured i in
    words :=
      !words + Mem.Header.object_words_c cells ~off:(Mem.Addr.offset a);
    if not elided then Cycle.visit_fields engine a
  done;
  count_region t ~elided !words;
  Support.Vec.clear t.new_pretenured

(* A mutated slot or remembered object inside the nursery needs no
   action: live nursery objects are traced wholesale.  Toplevel, so the
   drains take them without a closure. *)
let visit_barrier_loc engine loc =
  if not (Cycle.in_from engine loc) then Cycle.visit_loc engine loc

let visit_barrier_obj engine obj =
  if not (Cycle.in_from engine obj) then Cycle.visit_fields engine obj

(* The engine either rewrites in place (sequential) or stages packets
   (parallel).  Entries are counted as enumerated, so both paths report
   identical barrier statistics. *)
let drain_barrier t engine =
  let processed =
    match t.barrier with
    | B_ssb ssb ->
      let n = Ssb.length ssb in
      Ssb.drain ssb visit_barrier_loc engine;
      n
    | B_remset rs ->
      let n = Remset.length rs in
      Remset.drain rs visit_barrier_obj engine;
      n
    | B_cards (cards, overflow) ->
      let scan e card = scan_card t Cheney.visit_loc e cards card in
      let marked =
        Card_table.drain_marked cards (fun c -> Cycle.visit_card engine ~scan c)
      in
      (* counted after the cards: scanning them may re-remember
         large-object locations in the overflow buffer *)
      let n = Ssb.length overflow in
      Ssb.drain overflow visit_barrier_loc engine;
      marked + n
  in
  t.stats.Gc_stats.barrier_entries_processed <-
    t.stats.Gc_stats.barrier_entries_processed + processed

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

(* Per-site allocation rows, emitted at every collection start and at
   [destroy], so the trace's per-site allocation totals are exact over
   a fully-traced run.  The controller aggregates the same sorted rows
   the trace carries, which is what keeps its decisions replayable.
   Emission is gated on the detailed sinks — a flight ring must not be
   flooded with per-site rows just because the control plane keeps the
   table alive. *)
let flush_site_allocs t consume = Cycle.flush_site_allocs t.alloc_sites consume

(* per-site rows are kept for the trace, the profiler (both via
   [Cycle.site_tallies]) and the control plane *)
let site_tallies t = Cycle.site_tallies t.hooks || t.cfg.adaptive

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
  let f = t.frag in
  Alloc.Backend.frag_into t.tenured_be f;
  t.stats.Gc_stats.tenured_free_words <- f.Alloc.Backend.free_words;
  t.stats.Gc_stats.tenured_free_blocks <- f.Alloc.Backend.free_blocks;
  t.stats.Gc_stats.tenured_largest_hole <- f.Alloc.Backend.largest_hole;
  if traced then
    Obs.Trace.backend_stats ~region:"tenured"
      ~backend:(Alloc.Backend.name t.tenured_be)
      ~live_w:(Alloc.Backend.live_words t.tenured_be)
      ~free_w:f.Alloc.Backend.free_words
      ~free_blocks:f.Alloc.Backend.free_blocks
      ~largest_hole:f.Alloc.Backend.largest_hole;
  Los.frag_into t.los f;
  t.stats.Gc_stats.los_free_words <- f.Alloc.Backend.free_words;
  t.stats.Gc_stats.los_free_blocks <- f.Alloc.Backend.free_blocks;
  t.stats.Gc_stats.los_largest_hole <- f.Alloc.Backend.largest_hole;
  if traced then
    Obs.Trace.backend_stats ~region:"los" ~backend:(Los.backend_name t.los)
      ~live_w:(Los.live_words t.los)
      ~free_w:f.Alloc.Backend.free_words
      ~free_blocks:f.Alloc.Backend.free_blocks
      ~largest_hole:f.Alloc.Backend.largest_hole

(* --- the adaptive control plane (cfg.adaptive, docs/ADAPTIVE.md) --- *)

(* Feed the collection that just ended to the controller and route
   every site whose decision closes the window into the runtime's
   per-site pretenure table ([Hooks.set_pretenure]).  Runs strictly after
   [gc_end] (so the [policy_update] records carry this collection's
   ordinal) and never between [gc_begin] and [gc_end] — the control
   plane stays off the pause's critical path and off the mutator's
   entirely.  The observation is the collection's per-site rows, which
   the trace carries verbatim, so [Control.Replay] can re-run the fold
   offline and demand bit-for-bit the same decisions. *)
let control_after_collection t ~survivals =
  match t.controller with
  | None -> ()
  | Some c ->
    List.iter
      (fun (d : Control.Controller.decision) ->
        Obs.Trace.policy_update ~knob:d.Control.Controller.d_knob
          ~old_value:d.Control.Controller.d_old
          ~new_value:d.Control.Controller.d_new
          ~window:d.Control.Controller.d_window
          ~signals:d.Control.Controller.d_signals;
        t.hooks.Hooks.set_pretenure
          ~site:(Control.Controller.site_of_knob d.Control.Controller.d_knob)
          ~enabled:(d.Control.Controller.d_new = 1))
      (Control.Controller.observe c
         { Control.Controller.o_survival = Site_tally.rows survivals;
           o_alloc =
             List.map
               (fun (site, objects, _, words) -> (site, objects, words))
               (Site_tally.rows (Cycle.rows t.alloc_sites)) })

(* --- the collection cycle ---

   Every collection runs one skeleton ([cycle]): the collection ordinal,
   [gc_begin], the per-site allocation flush, the roots phase, then the
   kind's reclaim step, then the census, the backend snapshot, the
   runtime's [after_collection] hook, [gc_end] and the control plane.
   A reclaim step owns the phase spans and timers between the roots
   phase and the epilogue, and leaves what the epilogue reports in
   [t.reclaimed].  The default minor allocates nothing on the host: its
   clock is integer nanoseconds, its engine is reused, and its loops
   take no closures. *)

let report t ~copied ~promoted ~live_w ~survivals ~moved =
  let r = t.reclaimed in
  r.copied <- copied;
  r.promoted <- promoted;
  r.live_w <- live_w;
  r.survivals <- survivals;
  r.moved <- moved

(* from the roots phase to the control plane; [cycle] wraps it *)
let collect t ~kind ~scan_mode ~traced reclaim =
  let t0 = now () in
  let t1 =
    Cycle.roots ~hooks:t.hooks ~stats:t.stats ~traced ~t0 ~roots:t.roots
      scan_mode
  in
  reclaim t ~traced ~roots:t.roots ~t1;
  let r = t.reclaimed in
  census_after_collection t ~traced;
  sample_backend_stats t ~traced;
  t.hooks.Hooks.after_collection ~full:(kind <> "minor")
    ~allocs:(Cycle.rows t.alloc_sites)
    ~copies:(if r.moved then r.survivals else Site_tally.empty)
    ~deaths:(Cycle.rows t.deaths);
  if traced then
    Obs.Trace.gc_end ~kind ~pause_us:(Cycle.us (now () - t0))
      ~copied_w:r.copied ~promoted_w:r.promoted ~live_w:r.live_w;
  control_after_collection t ~survivals:r.survivals

(* The allocation rows are emitted as the collection begins and handed
   to [after_collection] and the control plane at its end: nothing
   allocates in between, so the table holds exactly the emitted rows.
   [Cycle.end_collection] then drops them with the death rows. *)
let cycle t ~kind ~scan_mode reclaim =
  t.collections <- t.collections + 1;
  let traced = Obs.Trace.enabled () in
  if traced then
    Obs.Trace.gc_begin ~kind ~nursery_w:(Mem.Space.used_words t.nursery)
      ~tenured_w:(Mem.Space.used_words t.tenured)
      ~los_w:(Los.live_words t.los);
  Cycle.emit_site_allocs t.alloc_sites;
  match collect t ~kind ~scan_mode ~traced reclaim with
  | () -> Cycle.end_collection ~alloc_sites:t.alloc_sites ~deaths:t.deaths
  | exception e ->
    Cycle.end_collection ~alloc_sites:t.alloc_sites ~deaths:t.deaths;
    raise e

(* the engine for a copy out of [from] into [to_space]; applied in
   full, as a partial application of [Cycle.engine] would allocate a
   chain of closures at every collection *)
let copy_engine t ~from ~to_space ?aging ?remember ?promote_alloc
    ?card_scan ~trace_los ~promoting () =
  Cycle.engine ~mem:t.mem ~from ~to_space ?aging ?remember ?promote_alloc
    ?card_scan ~los:(Some t.los) ~trace_los ~promoting ~eager:t.cfg.eager_evac
    ~site_tallies:(site_tallies t) ~parallelism:t.cfg.parallelism
    ~mode:t.cfg.parallelism_mode ~chunk_words:t.cfg.chunk_words ()

(* the engine for one minor: out of the nursery, promoting into the
   tenured space *)
let new_minor_engine t ~aging =
  copy_engine t ~from:t.nursery ~to_space:t.tenured ?aging
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
       | B_cards (cards, _) ->
         Some (fun visit card -> scan_card t apply_visit visit cards card)
       | B_ssb _ | B_remset _ -> None)
    ~trace_los:false ~promoting:true ()

(* Under immediate promotion at parallelism 1 every minor copies from
   the same nursery into the tenured space, so one sequential engine
   serves them all: built at the first minor, reset by the next ones,
   and retargeted by the reset when a copying major has replaced the
   tenured space since.  The nursery is only ever reset in that
   configuration, never swapped, so the from-space block the engine
   keeps stays the nursery's.  An aging minor needs the other nursery
   semispace as its young to-space and a parallel drain its
   per-collection packets, so both build their own. *)
let minor_engine t ~aging =
  match t.minor_engine with
  | Some (Cycle.Seq e as engine) ->
    Cheney.reset e ~to_space:t.tenured ~site_tallies:(site_tallies t);
    engine
  | Some (Cycle.Par _) | None ->
    let engine = new_minor_engine t ~aging in
    if t.cfg.tenure_threshold = 1 && t.cfg.parallelism = 1 then
      t.minor_engine <- Some engine;
    engine

(* The to-space of a pair swap (copying major, aging minor): the spare
   the previous swap retired, re-issued, or a fresh block at the first
   swap.  Either way the block takes the id a fresh [Space.create] would
   have, so ids, traces and stale-pointer errors match a run that
   allocates every to-space afresh. *)
let adopt_spare mem spare ~words =
  if Array.length spare = 0 then Mem.Space.create mem ~words
  else begin
    assert (Array.length spare = words);
    Mem.Space.reissue mem spare
  end

(* The minor reclaim step: the barrier drain ([barrier_ns], split into
   the [barrier] and [region_scan] spans, and starting where the roots
   phase ended, so it includes readying the engine), the nursery copy
   ([copy_ns], the [copy] span) and the profiling death sweep. *)
let reclaim_minor t ~traced ~roots ~t1 =
  let tenured_frontier_at_start = Mem.Space.frontier t.tenured in
  (* under an aging nursery, survivors below the threshold evacuate into
     the other nursery semispace instead of being promoted *)
  let aging =
    if t.cfg.tenure_threshold > 1 then begin
      let young_to = adopt_spare t.mem t.nursery_spare ~words:t.nursery_words in
      t.nursery_spare <- [||];
      Some { Cheney.young_to; threshold = t.cfg.tenure_threshold }
    end
    else None
  in
  let engine = minor_engine t ~aging in
  let entries0 = t.stats.Gc_stats.barrier_entries_processed in
  let region_scanned0 = t.stats.Gc_stats.words_region_scanned in
  let region_skipped0 = t.stats.Gc_stats.words_region_skipped in
  drain_barrier t engine;
  let t_mid = if traced then now () else t1 in
  (match t.cfg.major_kind with
   | Copying ->
     scan_pretenured_region t engine ~until:tenured_frontier_at_start
   | Mark_sweep ->
     (* pretenured grants are not contiguous above [pretenure_from] when
        holes serve them; scan the recorded bases instead *)
     scan_pretenured_list t engine);
  let t_barrier1 = now () in
  t.stats.Gc_stats.barrier_ns <- t.stats.Gc_stats.barrier_ns + (t_barrier1 - t1);
  if traced then begin
    Obs.Trace.phase ~name:"barrier" ~dur_us:(Cycle.us (t_mid - t1))
      ~counters:
        [ ("entries", t.stats.Gc_stats.barrier_entries_processed - entries0) ];
    Obs.Trace.phase ~name:"region_scan"
      ~dur_us:(Cycle.us (t_barrier1 - t_mid))
      ~counters:
        [ ("scanned_w", t.stats.Gc_stats.words_region_scanned - region_scanned0);
          ("skipped_w", t.stats.Gc_stats.words_region_skipped - region_skipped0) ]
  end;
  Cycle.drain engine ~stats:t.stats roots;
  let t2 = now () in
  t.stats.Gc_stats.copy_ns <- t.stats.Gc_stats.copy_ns + (t2 - t_barrier1);
  let survivals = Cycle.survivals engine in
  if traced then begin
    Cycle.trace_copy engine ~with_promoted:true
      ~dur_us:(Cycle.us (t2 - t_barrier1));
    Cycle.emit_survivals survivals
  end;
  Cycle.profile_sweep ~mem:t.mem ~deaths:t.deaths ~stats:t.stats ~traced
    ~since:t2 t.nursery;
  (match aging with
   | None -> Mem.Space.reset t.nursery
   | Some a ->
     (* the semispace with the young survivors becomes the nursery; the
        old one, retired, is the next aging minor's to-space *)
     t.nursery_spare <- Mem.Space.retire t.nursery t.mem;
     t.nursery <- a.Cheney.young_to);
  let copied = Cycle.copied engine and promoted = Cycle.promoted engine in
  t.stats.Gc_stats.words_copied <- t.stats.Gc_stats.words_copied + copied;
  t.stats.Gc_stats.words_promoted <- t.stats.Gc_stats.words_promoted + promoted;
  t.stats.Gc_stats.minor_gcs <- t.stats.Gc_stats.minor_gcs + 1;
  t.pretenure_from <- Mem.Space.frontier t.tenured;
  cover_new_tenured t;
  report t ~copied ~promoted ~live_w:(occupancy t) ~survivals ~moved:true

let sweep_los t =
  let freed = Los.sweep t.los ~deaths:t.deaths in
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
   LOS's reachable objects into the spare space, then sweep the LOS.
   The evacuated space is retired into the spare.  The whole step is
   [copy_seconds]; the spans split it into [copy] and [los_sweep]. *)
let reclaim_copying t ~traced ~roots ~t1 =
  assert (Mem.Space.used_words t.nursery = 0);
  let to_space = adopt_spare t.mem t.tenured_spare ~words:t.tenured_phys in
  t.tenured_spare <- [||];
  let engine =
    copy_engine t ~from:t.tenured ~to_space
      ~trace_los:true ~promoting:false ()
  in
  Cycle.drain engine ~stats:t.stats roots;
  let t_drain = if traced then now () else t1 in
  let los_freed_w = sweep_los t in
  let t2 = now () in
  t.stats.Gc_stats.copy_ns <- t.stats.Gc_stats.copy_ns + (t2 - t1);
  if traced then begin
    Cycle.trace_copy engine ~with_promoted:false
      ~dur_us:(Cycle.us (t_drain - t1));
    trace_los_sweep t ~freed:los_freed_w ~dur_us:(Cycle.us (t2 - t_drain))
  end;
  let survivals = Cycle.survivals engine in
  Cycle.emit_survivals survivals;
  Cycle.profile_sweep ~mem:t.mem ~deaths:t.deaths ~stats:t.stats ~traced
    ~since:t2 t.tenured;
  t.tenured_spare <- Mem.Space.retire t.tenured t.mem;
  t.tenured <- to_space;
  (* the compaction emptied every hole: restart the placement policy
     over the new space (of_space backends own no segments, so the old
     value needs no teardown beyond dropping it, and must be dropped:
     its block handle is now the spare).  The reused minor engine is
     retargeted at its next reset. *)
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
  report t ~copied ~promoted:0 ~live_w:(major_tail t) ~survivals ~moved:true

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
    Mark_sweep.create ~mem:t.mem ~tenured:t.tenured ~los:t.los ~marks:t.marks
      ~worklist:t.mark_stack ~site_tallies:(site_tallies t) ()
  in
  Rstack.Root.Buf.iter roots Mark_sweep.visit_root eng;
  Mark_sweep.drain eng;
  Gc_stats.add_scanned t.stats ~domain:0 (Mark_sweep.words_scanned eng);
  t.stats.Gc_stats.words_marked <-
    t.stats.Gc_stats.words_marked + Mark_sweep.words_marked eng;
  let t_mark = now () in
  let survivals = Mark_sweep.site_survivals eng in
  if traced then begin
    Obs.Trace.phase ~name:"mark" ~dur_us:(Cycle.us (t_mark - t1))
      ~counters:
        [ ("marked_w", Mark_sweep.words_marked eng);
          ("marked_objects", Mark_sweep.objects_marked eng);
          ("scanned_w", Mark_sweep.words_scanned eng) ];
    Cycle.emit_survivals survivals
  end;
  let swept_w = Mark_sweep.sweep eng ~backend:t.tenured_be ~deaths:t.deaths in
  t.stats.Gc_stats.words_swept_free <-
    t.stats.Gc_stats.words_swept_free + swept_w;
  let t_sweep = now () in
  if traced then
    Obs.Trace.phase ~name:"sweep" ~dur_us:(Cycle.us (t_sweep - t_mark))
      ~counters:
        [ ("freed_w", swept_w);
          ("live_w", Mark_sweep.words_marked_tenured eng) ];
  let los_freed_w = sweep_los t in
  let t2 = now () in
  t.stats.Gc_stats.copy_ns <- t.stats.Gc_stats.copy_ns + (t2 - t1);
  if traced then
    trace_los_sweep t ~freed:los_freed_w ~dur_us:(Cycle.us (t2 - t_sweep));
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
  report t ~copied:0 ~promoted:0 ~live_w ~survivals ~moved:false

let minor_collection t =
  (* Skipping previously-scanned frames is sound only under immediate
     promotion ("objects in the nursery are always promoted", Section 5):
     with an aging nursery a cached frame may still reference a young
     object that this collection moves, so cached frames are replayed
     (decode reuse without the skip). *)
  let scan_mode =
    if t.cfg.tenure_threshold = 1 then Rstack.Scan.Minor else Rstack.Scan.Full
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
      Alloc.Backend.frag_into t.tenured_be t.frag;
      t.frag.Alloc.Backend.largest_hole / 2
  in
  frontier_room + reusable < t.nursery_words

let collect_unguarded t ~major =
  minor_collection t;
  let pressure = t.cfg.major_kind = Mark_sweep && needs_compaction t in
  if major || occupancy t >= t.major_trigger || pressure then begin
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
      if needs_compaction t then major_collection t
  end

(* a handler rather than [Fun.protect], which takes two closures *)
let collect t ~major =
  if t.in_gc then failwith "Generational: re-entrant collection";
  t.in_gc <- true;
  match collect_unguarded t ~major with
  | () -> t.in_gc <- false
  | exception e ->
    t.in_gc <- false;
    raise e

let minor t = collect t ~major:false
let full t = collect t ~major:true

let exhausted what = raise (Budget.Exhausted ("Generational: " ^ what))

(* Both entries reject a bad header before any collection, grant or
   counter: a rejected allocation leaves the heap, the statistics and
   the site tallies untouched.  A grant is written through the block
   handle of the space it came from, read after any collection (an
   aging minor swaps the nursery, a copying major the tenured space). *)
let alloc t ~tag ~len ~mask ~site ~birth =
  Mem.Header.validate_fields ~tag ~len ~mask ~site;
  let words = Mem.Header.header_words () + len in
  if tag <> Mem.Header.tag_record && words >= t.cfg.los_threshold_words
  then begin
    (* large object: collect first if the old generation is at its
       trigger, then place the object in the large-object space *)
    if occupancy t + words >= t.major_trigger then collect t ~major:true;
    if occupancy t + words > t.tenured_cap then
      exhausted "large object exceeds memory budget";
    let base = Los.alloc t.los ~tag ~len ~mask ~site ~birth in
    Cycle.count_alloc ~stats:t.stats ~sites:t.alloc_sites ~tag ~site ~words;
    (match t.los_births with
     | None -> ()
     | Some tbl -> Hashtbl.replace tbl base t.collections);
    base
  end
  else begin
    if words > t.nursery_words then
      exhausted "object larger than the nursery";
    let base = Mem.Space.grant t.nursery words in
    (* under an aging nursery, survivors occupy part of the fresh
       semispace; repeated minors age them up to promotion, so at most
       [tenure_threshold] collections free the space *)
    let base = ref base and attempts = ref 0 in
    while Mem.Addr.is_null !base do
      if !attempts >= t.cfg.tenure_threshold then
        exhausted "nursery exhausted after collection";
      incr attempts;
      collect t ~major:false;
      base := Mem.Space.grant t.nursery words
    done;
    let base = !base in
    Cycle.finish_alloc ~stats:t.stats ~sites:t.alloc_sites
      (Mem.Space.cells t.nursery) ~tag ~len ~mask ~site ~birth base
  end

(* pretenured grants go through the configured placement policy, which
   places inside [t.tenured]'s block; with the default bump backend this
   is a frontier bump of the tenured space *)
let alloc_pretenured t ~tag ~len ~mask ~site ~birth =
  Mem.Header.validate_fields ~tag ~len ~mask ~site;
  let words = Mem.Header.header_words () + len in
  if occupancy t + words >= t.major_trigger then collect t ~major:true;
  let base = Alloc.Backend.alloc t.tenured_be words in
  if Mem.Addr.is_null base then exhausted "tenured area exhausted (pretenuring)";
  let cells = Mem.Space.cells t.tenured in
  ignore
    (Cycle.finish_alloc ~stats:t.stats ~sites:t.alloc_sites cells ~tag ~len
       ~mask ~site ~birth base
      : Mem.Addr.t);
  t.stats.Gc_stats.words_pretenured <- t.stats.Gc_stats.words_pretenured + words;
  (* the object has already survived its "first collection" by fiat;
     mark it so the profiler does not double-count a later copy *)
  Mem.Header.set_survivor_c cells ~off:(Mem.Addr.offset base);
  if t.cfg.major_kind = Mark_sweep then Support.Vec.push t.new_pretenured base;
  (match t.controller with
   | None -> ()
   | Some c -> Control.Controller.note_pretenured c site);
  base

let destroy t =
  (* allocations since the last collection have not been flushed yet;
     emit them so a fully-traced run's per-site totals are exact
     (emission is self-gated; the rows go to no consumer — there is no
     collection left to decide for) *)
  flush_site_allocs t ignore;
  Mem.Space.release t.nursery t.mem;
  Mem.Space.release t.tenured t.mem;
  t.tenured_spare <- [||];
  t.nursery_spare <- [||];
  Los.destroy t.los
