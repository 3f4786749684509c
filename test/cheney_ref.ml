(* The reference copy engine: [Collectors.Cheney] written against the
   safe memory API.  Every field touched goes through [Memory.get]/[set]
   and [Header.read], re-resolving its block and boxing a [Value.t].  It
   is the executable specification of the engine's copy, eager-child,
   evacuate and scan loops, and it is kept here, next to the property in
   test_gc.ml that runs it and the engine on the same generated graphs
   and requires identical heaps, counters, site tallies and remembered
   edges.

   The state record and the helpers around the loops ([create],
   [promote_dst], [drain]) mirror the engine's, and [note_site_copy]
   keeps its own tally for comparison with the engine's [Site_tally]
   rows; the loops are the engine's loops on the safe tier, in the same
   traversal order, so both place and account objects identically. *)

open Collectors

type aging = Cheney.aging = {
  young_to : Mem.Space.t;
  threshold : int;
}

type t = {
  mem : Mem.Memory.t;
  from : Mem.Space.t;
  to_space : Mem.Space.t;
  aging : aging option;
  remember : (loc:Mem.Addr.t -> owner:Mem.Addr.t option -> unit) option;
  los : Los.t option;
  trace_los : bool;
  promoting : bool;
  promote_alloc : (int -> Mem.Addr.t) option;
  eager : bool;
  mutable eager_budget : int;
  mutable scan : Mem.Addr.t;
  mutable scan_young : Mem.Addr.t;
  gray_large : Mem.Addr.t Support.Vec.t;
  gray_promoted : Mem.Addr.t Support.Vec.t;
  mutable copied : int;
  mutable promoted : int;
  mutable scanned : int;
  sites : (int, int * int * int) Hashtbl.t option;
}

let create ~mem ~from ~to_space ?aging ?remember ?promote_alloc ?(eager = false)
    ~site_tallies ~los ~trace_los ~promoting () =
  { mem;
    from;
    to_space;
    aging;
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
    sites = (if site_tallies then Some (Hashtbl.create 32) else None) }

let note_site_copy t ~site ~first ~words =
  match t.sites with
  | None -> ()
  | Some tab ->
    let objects, firsts, w =
      match Hashtbl.find_opt tab site with
      | Some p -> p
      | None -> (0, 0, 0)
    in
    Hashtbl.replace tab site
      (objects + 1, (if first then firsts + 1 else firsts), w + words)

(* grants signal a miss with [Addr.null] *)
let granted a = if Mem.Addr.is_null a then None else Some a

let promote_dst t words =
  match t.promote_alloc with
  | Some alloc ->
    (match granted (alloc words) with
     | Some dst -> dst
     | None ->
       raise (Budget.Exhausted "tenured backend exhausted during promotion"))
  | None ->
    (match granted (Mem.Space.grant t.to_space words) with
     | Some dst -> dst
     | None when t.promoting ->
       raise (Budget.Exhausted "promotion overflows the tenured space")
     | None -> failwith "Cheney: to-space overflow (collector sizing bug)")

let eager_depth_bound = 4
let eager_words_bound = 64

let copy_object_safe t a =
  let words = Mem.Header.object_words_at t.mem a in
  let age = Mem.Header.age t.mem a in
  let dst, promote =
    match t.aging with
    | Some { young_to; threshold } when age + 1 < threshold ->
      (match granted (Mem.Space.grant young_to words) with
       | Some dst -> (dst, false)
       | None -> failwith "Cheney: to-space overflow (collector sizing bug)")
    | Some _ | None -> (promote_dst t words, true)
  in
  let hdr = Mem.Header.read t.mem a in
  let first_copy = not (Mem.Header.survivor t.mem a) in
  Mem.Memory.blit t.mem ~src:a ~dst ~words;
  Mem.Header.set_survivor t.mem dst;
  if not promote then
    Mem.Header.set_age t.mem dst (min Mem.Header.max_age (age + 1));
  if t.sites <> None then
    note_site_copy t ~site:hdr.Mem.Header.site ~first:first_copy ~words;
  Mem.Header.set_forward t.mem a ~target:dst;
  t.copied <- t.copied + words;
  if promote then begin
    t.promoted <- t.promoted + words;
    if t.promote_alloc <> None then Support.Vec.push t.gray_promoted dst
  end;
  dst

(* safe twin of [Cheney]'s eager-child walk; identical traversal order so the
   two paths place (and account) objects identically *)
let rec eager_children_safe t dst ~depth =
  let hdr = Mem.Header.read t.mem dst in
  match hdr.Mem.Header.kind with
  | Mem.Header.Nonptr_array -> ()
  | Mem.Header.Ptr_array | Mem.Header.Record _ ->
    let i = ref 0 in
    while !i < hdr.Mem.Header.len && t.eager_budget > 0 do
      if Mem.Header.is_pointer_field hdr !i then begin
        match Mem.Memory.get t.mem (Mem.Header.field_addr dst !i) with
        | Mem.Value.Ptr a
          when (not (Mem.Addr.is_null a))
               && Mem.Space.contains t.from a
               && Mem.Header.forwarded t.mem a = None ->
          t.eager_budget <- t.eager_budget - Mem.Header.object_words_at t.mem a;
          let cdst = copy_object_safe t a in
          if depth + 1 < eager_depth_bound && t.eager_budget > 0 then
            eager_children_safe t cdst ~depth:(depth + 1)
        | Mem.Value.Ptr _ | Mem.Value.Int _ -> ()
      end;
      incr i
    done

let evacuate_safe t v =
  match v with
  | Mem.Value.Int _ -> v
  | Mem.Value.Ptr a ->
    if Mem.Addr.is_null a then v
    else if Mem.Space.contains t.from a then begin
      match Mem.Header.forwarded t.mem a with
      | Some target -> Mem.Value.Ptr target
      | None ->
        let dst = copy_object_safe t a in
        if t.eager then begin
          t.eager_budget <- eager_words_bound;
          eager_children_safe t dst ~depth:0
        end;
        Mem.Value.Ptr dst
    end
    else begin
      (match t.los with
       | Some los when t.trace_los && Los.contains los a ->
         if Los.mark los a then Support.Vec.push t.gray_large a
       | Some _ | None -> ());
      v
    end

let visit_field_safe t ~owner loc =
  let v = Mem.Memory.get t.mem loc in
  let v' = evacuate_safe t v in
  if not (Mem.Value.equal v v') then Mem.Memory.set t.mem loc v';
  match t.remember, t.aging, v' with
  | Some remember, Some a, Mem.Value.Ptr target
    when (not (Mem.Addr.is_null target))
         && Mem.Space.contains a.young_to target
         && not (Mem.Space.contains a.young_to loc) ->
    remember ~loc ~owner
  | (Some _ | None), _, _ -> ()

let scan_object_safe t base =
  let hdr = Mem.Header.read t.mem base in
  (match hdr.Mem.Header.kind with
   | Mem.Header.Nonptr_array -> ()
   | Mem.Header.Ptr_array ->
     for i = 0 to hdr.Mem.Header.len - 1 do
       visit_field_safe t ~owner:(Some base) (Mem.Header.field_addr base i)
     done
   | Mem.Header.Record { mask } ->
     for i = 0 to hdr.Mem.Header.len - 1 do
       if mask land (1 lsl i) <> 0 then
         visit_field_safe t ~owner:(Some base) (Mem.Header.field_addr base i)
     done);
  Mem.Header.object_words hdr

(* --- the engine's entry points, on the safe loops --- *)

let visit_root t cells i =
  let v = Mem.Value.decode cells.(i) in
  let v' = evacuate_safe t v in
  if not (Mem.Value.equal v v') then cells.(i) <- Mem.Value.encode v'

let visit_loc t loc = visit_field_safe t ~owner:None loc

let visit_object_fields t base = ignore (scan_object_safe t base : int)

(* every object in [base, until) but the fillers, through the full
   object scan *)
let scan_region t base ~until =
  let words = ref 0 in
  let a = ref base in
  while Mem.Addr.diff until !a > 0 do
    let hdr = Mem.Header.read t.mem !a in
    let n = Mem.Header.object_words hdr in
    if not (hdr.Mem.Header.kind = Mem.Header.Nonptr_array
            && hdr.Mem.Header.site = Mem.Header.filler_site)
    then begin
      words := !words + n;
      ignore (scan_object_safe t !a : int)
    end;
    a := Mem.Addr.add !a n
  done;
  !words

let drain t =
  let progress = ref true in
  while !progress do
    progress := false;
    (match t.promote_alloc with
     | None ->
       while Mem.Addr.diff (Mem.Space.frontier t.to_space) t.scan > 0 do
         progress := true;
         let words = scan_object_safe t t.scan in
         t.scanned <- t.scanned + words;
         t.scan <- Mem.Addr.unsafe_add t.scan words
       done
     | Some _ ->
       while not (Support.Vec.is_empty t.gray_promoted) do
         progress := true;
         let base = Support.Vec.pop t.gray_promoted in
         let words = scan_object_safe t base in
         t.scanned <- t.scanned + words
       done);
    (match t.aging with
     | None -> ()
     | Some a ->
       while Mem.Addr.diff (Mem.Space.frontier a.young_to) t.scan_young > 0 do
         progress := true;
         let words = scan_object_safe t t.scan_young in
         t.scanned <- t.scanned + words;
         t.scan_young <- Mem.Addr.unsafe_add t.scan_young words
       done);
    while not (Support.Vec.is_empty t.gray_large) do
      progress := true;
      let base = Support.Vec.pop t.gray_large in
      let words = scan_object_safe t base in
      t.scanned <- t.scanned + words
    done
  done

let words_copied t = t.copied

let words_promoted t = t.promoted

let words_scanned t = t.scanned

let site_survivals t =
  match t.sites with
  | None -> []
  | Some tab ->
    List.sort compare
      (Hashtbl.fold (fun site (objects, first_objects, words) acc ->
           (site, objects, first_objects, words) :: acc)
         tab [])
