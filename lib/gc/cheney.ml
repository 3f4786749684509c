(* The engine's inner loops run on the raw memory tier: each object's
   block is resolved once into a cell-array handle ([Memory.cells]) and
   fields move as encoded words ([Value.encode]d ints), with no
   allocation.  The from-space is named, not tested through a predicate:
   the engine keeps its block id and cell array, so classifying a
   pointer is one integer compare and reading the object behind it
   needs no block lookup.  The safe-API reference implementation of the
   same loops lives in test/cheney_ref.ml; a generated-graph property in
   test_gc.ml pins the two to identical heaps, counters, site tallies
   and remembered edges. *)

type aging = {
  young_to : Mem.Space.t;
  threshold : int;
}

type t = {
  mem : Mem.Memory.t;
  from_id : int;                    (* block id of the from-space *)
  from_cells : int array;           (* block handle of the from-space *)
  mutable to_space : Mem.Space.t;   (* retargeted by [reset] *)
  mutable to_cells : int array;     (* block handle of [to_space] *)
  aging : aging option;
  young_cells : int array;          (* block handle of [aging.young_to] *)
  remember : (loc:Mem.Addr.t -> owner:Mem.Addr.t option -> unit) option;
  los : Los.t option;
  trace_los : bool;
  promoting : bool;
  promote_alloc : (int -> Mem.Addr.t) option;
      (* when set, promotions are placed by this allocator (a backend
         over [to_space]'s block) instead of bumping the to-space
         frontier, and each copy is queued on [gray_promoted]: grants
         may land in holes below the frontier, so the contiguous
         scan-pointer walk cannot find them *)
  eager : bool;                     (* hierarchical (eager-child) evacuation *)
  mutable eager_budget : int;       (* words left under the current root *)
  mutable scan : Mem.Addr.t;        (* to-space scan pointer *)
  mutable scan_young : Mem.Addr.t;  (* young to-space scan pointer *)
  gray_large : Mem.Addr.t Support.Vec.t;
  gray_promoted : Mem.Addr.t Support.Vec.t;
  mutable copied : int;
  mutable promoted : int;
  mutable scanned : int;            (* words walked by the drain loops *)
  mutable sites : Site_tally.t option;
      (* per-site objects, first-collection objects and words copied —
         only allocated when someone consumes the rows *)
}

let create ~mem ~from ~to_space ?aging ?remember ?promote_alloc ?(eager = false)
    ~site_tallies ~los ~trace_los ~promoting () =
  { mem;
    from_id = Mem.Addr.block (Mem.Space.base from);
    from_cells = Mem.Space.cells from;
    to_space;
    to_cells = Mem.Memory.cells mem (Mem.Space.base to_space);
    aging;
    young_cells =
      (match aging with
       | Some a -> Mem.Memory.cells mem (Mem.Space.base a.young_to)
       | None -> [||]);
    remember;
    los;
    trace_los;
    promoting;
    promote_alloc;
    eager;
    eager_budget = 0;
    scan = Mem.Space.frontier to_space;
    scan_young =
      (match aging with
       | Some a -> Mem.Space.frontier a.young_to
       | None -> Mem.Addr.null);
    gray_large = Support.Vec.create ();
    gray_promoted = Support.Vec.create ();
    copied = 0;
    promoted = 0;
    scanned = 0;
    sites = (if site_tallies then Some (Site_tally.create ()) else None) }

let reset t ~to_space ~site_tallies =
  t.to_space <- to_space;
  t.to_cells <- Mem.Space.cells to_space;
  t.eager_budget <- 0;
  t.scan <- Mem.Space.frontier t.to_space;
  (match t.aging with
   | Some a -> t.scan_young <- Mem.Space.frontier a.young_to
   | None -> ());
  Support.Vec.clear t.gray_large;
  Support.Vec.clear t.gray_promoted;
  t.copied <- 0;
  t.promoted <- 0;
  t.scanned <- 0;
  match t.sites with
  | Some tab when site_tallies -> Site_tally.clear tab
  | Some _ | None ->
    t.sites <- (if site_tallies then Some (Site_tally.create ()) else None)

(* the null address decodes to a block id no live block has *)
let in_from t a = Mem.Addr.block a = t.from_id

(* destination grant for one promotion: the backend placement policy
   when [promote_alloc] is set (grants stay inside [to_space]'s block,
   so the resolved cell handles remain valid), the to-space frontier
   otherwise.  A promoting engine that runs out has met a budget too
   small for the live data; a non-promoting one was sized wrong. *)
let promote_dst t words =
  match t.promote_alloc with
  | Some alloc ->
    let dst = alloc words in
    if Mem.Addr.is_null dst then
      raise (Budget.Exhausted "tenured backend exhausted during promotion");
    dst
  | None ->
    let dst = Mem.Space.grant t.to_space words in
    if Mem.Addr.is_null dst then begin
      if t.promoting then
        raise (Budget.Exhausted "promotion overflows the tenured space");
      failwith "Cheney: to-space overflow (collector sizing bug)"
    end;
    dst

(* [src]/[soff] locate the object being copied in its already-resolved
   block *)
let copy_object t src soff =
  let words = Mem.Header.object_words_c src ~off:soff in
  (* destination: under an aging nursery, survivors below the tenure
     threshold are copied back young with their age bumped *)
  let age = Mem.Header.age_c src ~off:soff in
  let dst, dcells, promote =
    match t.aging with
    | Some { young_to; threshold } when age + 1 < threshold ->
      let dst = Mem.Space.grant young_to words in
      if Mem.Addr.is_null dst then
        failwith "Cheney: to-space overflow (collector sizing bug)";
      (dst, t.young_cells, false)
    | Some _ | None -> (promote_dst t words, t.to_cells, true)
  in
  let doff = Mem.Addr.offset dst in
  let first_copy = not (Mem.Header.survivor_c src ~off:soff) in
  Mem.Memory.copy_cells src soff dcells doff words;
  Mem.Header.set_survivor_c dcells ~off:doff;
  if not promote then
    Mem.Header.set_age_c dcells ~off:doff (min Mem.Header.max_age (age + 1));
  (match t.sites with
   | None -> ()
   | Some tab ->
     Site_tally.note tab ~site:(Mem.Header.site_c src ~off:soff)
       ~first:first_copy ~words);
  Mem.Header.set_forward_c src ~off:soff ~target:dst;
  t.copied <- t.copied + words;
  if promote then begin
    t.promoted <- t.promoted + words;
    if t.promote_alloc <> None then Support.Vec.push t.gray_promoted dst
  end;
  dst

(* --- hierarchical (eager-child) evacuation ---

   After copying a parent, pull its not-yet-forwarded children
   depth-first into the same to-space run, so parent and children sit
   cache-adjacent instead of breadth-first-scattered (ROADMAP: lhc's
   "evacuate children eagerly when safe").  Placement only: the parent's
   fields are NOT rewritten here — the normal scan pass visits them
   later and finds the children already forwarded.  The walk reads the
   children out of the fresh copy (the source header now holds the
   forwarding word).  Both a depth bound and a per-root word budget cap
   the recursion so the parallel drain's per-domain chunks stay small;
   past either bound the children fall back to the ordinary
   scan-pointer/gray-queue order. *)

let eager_depth_bound = 4
let eager_words_bound = 64

let rec eager_children t dst ~depth =
  let dcells = Mem.Memory.cells t.mem dst in
  let doff = Mem.Addr.offset dst in
  let tag = Mem.Header.tag_c dcells ~off:doff in
  if tag <> Mem.Header.tag_nonptr_array then begin
    let len = Mem.Header.len_c dcells ~off:doff in
    let masked = tag = Mem.Header.tag_record in
    let mask = if masked then Mem.Header.mask_c dcells ~off:doff else 0 in
    let hw = Mem.Header.header_words () in
    let i = ref 0 in
    while !i < len && t.eager_budget > 0 do
      if (not masked) || mask land (1 lsl !i) <> 0 then begin
        let w = dcells.(doff + hw + !i) in
        if (not (Mem.Value.encoded_is_int w)) && w <> Mem.Value.encoded_null
        then begin
          let a = Mem.Value.encoded_to_addr w in
          if in_from t a then begin
            let src = t.from_cells in
            let soff = Mem.Addr.offset a in
            if not (Mem.Header.is_forwarded_c src ~off:soff) then begin
              t.eager_budget <-
                t.eager_budget - Mem.Header.object_words_c src ~off:soff;
              let cdst = copy_object t src soff in
              if depth + 1 < eager_depth_bound && t.eager_budget > 0 then
                eager_children t cdst ~depth:(depth + 1)
            end
          end
        end
      end;
      incr i
    done
  end

(* the encoded word for the from-space object at [a]: its forwarding
   target, or a fresh copy *)
let forward t a =
  let src = t.from_cells in
  let soff = Mem.Addr.offset a in
  if Mem.Header.is_forwarded_c src ~off:soff then
    Mem.Value.encode_addr (Mem.Header.forward_target_c src ~off:soff)
  else begin
    let dst = copy_object t src soff in
    if t.eager then begin
      t.eager_budget <- eager_words_bound;
      eager_children t dst ~depth:0
    end;
    Mem.Value.encode_addr dst
  end

(* a large-object pointer met by an engine that traces the LOS: the
   object is marked, and queued for its fields when first marked *)
let mark_large t a =
  match t.los with
  | Some los when Los.contains los a ->
    if Los.mark los a then Support.Vec.push t.gray_large a
  | Some _ | None -> ()

(* forward one encoded word; returns the (possibly rewritten) word *)
let evacuate t w =
  if Mem.Value.encoded_is_ptr w then begin
    let a = Mem.Value.encoded_to_addr w in
    if in_from t a then forward t a
    else begin
      if t.trace_los then mark_large t a;
      w
    end
  end
  else w

(* aging: a location outside the young to-space now pointing into it is
   an old-to-young edge that must stay remembered.  Only reached when
   both [remember] and [aging] are set.  [owner] is {!Mem.Addr.null} for
   a raw location; the option [remember] takes is boxed only for an
   edge actually remembered. *)
let remember_check t ~loc ~owner w' =
  match t.remember, t.aging with
  | Some remember, Some a
    when Mem.Value.encoded_is_ptr w'
         && Mem.Space.contains a.young_to (Mem.Value.encoded_to_addr w')
         && not (Mem.Space.contains a.young_to loc) ->
    remember ~loc
      ~owner:(if Mem.Addr.is_null owner then None else Some owner)
  | (Some _ | None), _ -> ()

(* rewrite the field at [cells.(foff)] of the object at [base], whose
   header starts at [off]; toplevel with its environment as arguments,
   so the field loops allocate no closure per object *)
let scan_field t cells base off ~aging_edges foff =
  let w = cells.(foff) in
  let w' = evacuate t w in
  if w' <> w then cells.(foff) <- w';
  if aging_edges then
    remember_check t ~loc:(Mem.Addr.unsafe_add base (foff - off)) ~owner:base
      w'

let aging_edges t = t.remember <> None && t.aging <> None

(* rewrite the pointer fields of the object at [base], resolved to
   [cells]/[off], whose header reads [tag] and [len]; inlined into its
   two callers, the object scan and the region loop, which calls it for
   every pretenured object *)
let[@inline] scan_fields t cells base off ~tag ~len =
  if tag <> Mem.Header.tag_nonptr_array then begin
    let aging_edges = aging_edges t in
    let first = off + Mem.Header.header_words () in
    if tag = Mem.Header.tag_ptr_array then
      for foff = first to first + len - 1 do
        scan_field t cells base off ~aging_edges foff
      done
    else begin
      let mask = Mem.Header.mask_c cells ~off in
      for i = 0 to len - 1 do
        if mask land (1 lsl i) <> 0 then
          scan_field t cells base off ~aging_edges (first + i)
      done
    end
  end

(* scan the object at [base], whose block handle is [cells]; returns its
   footprint *)
let scan_object_c t cells base =
  let off = Mem.Addr.offset base in
  let tag = Mem.Header.tag_c cells ~off in
  let len = Mem.Header.len_c cells ~off in
  scan_fields t cells base off ~tag ~len;
  Mem.Header.header_words () + len

let scan_object t base = scan_object_c t (Mem.Memory.cells t.mem base) base

let scan_region t base ~until =
  let cells = Mem.Memory.cells t.mem base in
  let base_off = Mem.Addr.offset base in
  let limit = Mem.Addr.offset until in
  let hw = Mem.Header.header_words () in
  let words = ref 0 in
  let off = ref base_off in
  while !off < limit do
    let o = !off in
    let tag = Mem.Header.tag_c cells ~off:o in
    let len = Mem.Header.len_c cells ~off:o in
    (* chunk-tail fillers from earlier parallel drains are not
       pretenured objects: stepped over, not counted *)
    if tag <> Mem.Header.tag_nonptr_array
       || Mem.Header.site_c cells ~off:o <> Mem.Header.filler_site
    then words := !words + hw + len;
    scan_fields t cells (Mem.Addr.unsafe_add base (o - base_off)) o ~tag ~len;
    off := o + hw + len
  done;
  !words

let visit_loc t loc =
  let cells = Mem.Memory.cells t.mem loc in
  let off = Mem.Addr.offset loc in
  let w = cells.(off) in
  let w' = evacuate t w in
  if w' <> w then cells.(off) <- w';
  if aging_edges t then remember_check t ~loc ~owner:Mem.Addr.null w'

let visit_root t cells i =
  let w = cells.(i) in
  let w' = evacuate t w in
  if w' <> w then cells.(i) <- w'

let visit_object_fields t base = ignore (scan_object t base : int)

let drain t =
  let progress = ref true in
  while !progress do
    progress := false;
    (match t.promote_alloc with
     | None ->
       (* to-space scan pointer *)
       while Mem.Addr.diff (Mem.Space.frontier t.to_space) t.scan > 0 do
         progress := true;
         let words = scan_object_c t t.to_cells t.scan in
         t.scanned <- t.scanned + words;
         t.scan <- Mem.Addr.unsafe_add t.scan words
       done
     | Some _ ->
       (* backend-placed promotions may land in holes below the
          frontier, invisible to the scan pointer; the gray queue
          carries them instead.  The frontier still moves (backend
          fallback bumps it), so the scan-pointer loop must not run —
          it would re-scan frontier grants already queued here. *)
       while not (Support.Vec.is_empty t.gray_promoted) do
         progress := true;
         let base = Support.Vec.pop t.gray_promoted in
         let words = scan_object_c t t.to_cells base in
         t.scanned <- t.scanned + words
       done);
    (* young to-space scan pointer (aging nurseries) *)
    (match t.aging with
     | None -> ()
     | Some a ->
       while Mem.Addr.diff (Mem.Space.frontier a.young_to) t.scan_young > 0 do
         progress := true;
         let words = scan_object_c t t.young_cells t.scan_young in
         t.scanned <- t.scanned + words;
         t.scan_young <- Mem.Addr.unsafe_add t.scan_young words
       done);
    (* queued large objects *)
    while not (Support.Vec.is_empty t.gray_large) do
      progress := true;
      let base = Support.Vec.pop t.gray_large in
      let words = scan_object t base in
      t.scanned <- t.scanned + words
    done
  done

let words_copied t = t.copied

let words_promoted t = t.promoted

let words_scanned t = t.scanned

let site_survivals t =
  match t.sites with
  | None -> Site_tally.empty
  | Some tab -> tab

let sweep_dead ~mem ~space ~deaths =
  (* one block handle for the whole walk *)
  let base = Mem.Space.base space in
  let cells = Mem.Memory.cells mem base in
  let base_off = Mem.Addr.offset base in
  let limit = base_off + Mem.Space.used_words space in
  let rec walk off =
    if off < limit then begin
      let words = Mem.Header.object_words_c cells ~off in
      if
        (not (Mem.Header.is_forwarded_c cells ~off))
        (* chunk-tail fillers left by the parallel drain are not mutator
           objects; their "death" must not reach the profiler *)
        && not (Mem.Header.is_filler_c cells ~off)
      then
        Site_tally.note_death deaths ~site:(Mem.Header.site_c cells ~off)
          ~birth:(Mem.Header.birth_c cells ~off);
      walk (off + words)
    end
  in
  walk base_off
