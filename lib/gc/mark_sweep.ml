(* The mark-in-place major engine: marks the tenured space and the
   large-object space without moving anything, then sweeps dead tenured
   objects back into the allocation backend as reusable holes.

   Mark state lives in a side bitmap (one byte per tenured word, indexed
   by the object's space-relative base offset) so object headers stay
   untouched — the mutator, the census walk and the write barrier all
   keep seeing ordinary headers.  The gray set is a plain LIFO stack of
   addresses: the marker is sequential, so it needs no owner checks and
   no [option] box per pop.

   The engine is per-collection, like {!Cheney}: create, push roots,
   [drain], [sweep], drop.  The bitmap and the gray stack are the
   caller's: [create] clears them, so one buffer of each serves every
   major of a collector instead of fresh host allocations per major. *)

type t = {
  mem : Mem.Memory.t;
  tenured : Mem.Space.t;
  t_cells : int array;              (* block handle of [tenured] *)
  t_base : Mem.Addr.t;
  marks : Bytes.t;                  (* '\001' at marked object bases *)
  los : Los.t;
  worklist : Mem.Addr.t Support.Vec.t;
  mutable marked_tenured : int;     (* words under marked tenured objects *)
  mutable marked_los : int;         (* words under marked large objects *)
  mutable marked_objects : int;
  mutable scanned : int;            (* words walked by the drain loop *)
  sites : Site_tally.t option;
      (* per-site (objects, first-collection objects, words) marked in
         the tenured space — the mark-phase analogue of the copy
         engines' survival tallies, under the same [site_tallies] gate *)
}

let create ~mem ~tenured ~los ~marks ~worklist ~site_tallies () =
  if Bytes.length marks <> Mem.Space.size_words tenured then
    invalid_arg "Mark_sweep.create: mark bitmap size";
  Bytes.fill marks 0 (Bytes.length marks) '\000';
  Support.Vec.clear worklist;
  { mem;
    tenured;
    t_cells = Mem.Memory.cells mem (Mem.Space.base tenured);
    t_base = Mem.Space.base tenured;
    marks;
    los;
    worklist;
    marked_tenured = 0;
    marked_los = 0;
    marked_objects = 0;
    scanned = 0;
    sites = (if site_tallies then Some (Site_tally.create ()) else None) }

let mark_tenured t a =
  let idx = Mem.Addr.diff a t.t_base in
  if Bytes.unsafe_get t.marks idx = '\000' then begin
    Bytes.unsafe_set t.marks idx '\001';
    let off = Mem.Addr.offset a in
    let words = Mem.Header.object_words_c t.t_cells ~off in
    t.marked_tenured <- t.marked_tenured + words;
    t.marked_objects <- t.marked_objects + 1;
    (match t.sites with
     | None -> ()
     | Some tab ->
       Site_tally.note tab ~site:(Mem.Header.site_c t.t_cells ~off)
         ~first:(not (Mem.Header.survivor_c t.t_cells ~off))
         ~words);
    Support.Vec.push t.worklist a
  end

let mark_addr t a =
  if Mem.Space.contains t.tenured a then mark_tenured t a
  else if Los.contains t.los a then
    if Los.mark t.los a then begin
      t.marked_los <- t.marked_los + Mem.Header.object_words_at t.mem a;
      Support.Vec.push t.worklist a
    end

(* roots and fields alike are encoded words *)
let mark_encoded t w =
  if not (Mem.Value.encoded_is_int w || w = Mem.Value.encoded_null) then
    mark_addr t (Mem.Value.encoded_to_addr w)

let visit_root t cells i = mark_encoded t cells.(i)

let scan_object t base =
  let cells = Mem.Memory.cells t.mem base in
  let off = Mem.Addr.offset base in
  let tag = Mem.Header.tag_c cells ~off in
  let len = Mem.Header.len_c cells ~off in
  (if tag <> Mem.Header.tag_nonptr_array then begin
     let fbase = off + Mem.Header.header_words () in
     if tag = Mem.Header.tag_ptr_array then
       for i = 0 to len - 1 do
         mark_encoded t cells.(fbase + i)
       done
     else begin
       let mask = Mem.Header.mask_c cells ~off in
       for i = 0 to len - 1 do
         if mask land (1 lsl i) <> 0 then mark_encoded t cells.(fbase + i)
       done
     end
   end);
  (Mem.Header.header_words ()) + len

let drain t =
  while not (Support.Vec.is_empty t.worklist) do
    t.scanned <- t.scanned + scan_object t (Support.Vec.pop t.worklist)
  done

let sweep t ~backend ~deaths =
  let cells = t.t_cells in
  let base_off = Mem.Addr.offset t.t_base in
  let limit = Mem.Space.used_words t.tenured in
  let freed = ref 0 in
  (* consecutive corpses coalesce into one [free] call, so the backend
     receives whole holes instead of per-object fragments; holes already
     owned by the backend (fillers) bound the runs — re-freeing them
     would double-count *)
  let run_start = ref 0 in
  let run_words = ref 0 in
  let flush_run () =
    if !run_words > 0 then begin
      Alloc.Backend.free backend
        (Mem.Addr.unsafe_add t.t_base !run_start)
        ~words:!run_words;
      freed := !freed + !run_words;
      run_words := 0
    end
  in
  let rec walk off =
    if off < limit then begin
      let aoff = base_off + off in
      let words = Mem.Header.object_words_c cells ~off:aoff in
      if
        Mem.Header.is_filler_c cells ~off:aoff
        || Bytes.unsafe_get t.marks off = '\001'
      then flush_run ()
      else begin
        (match deaths with
         | None -> ()
         | Some deaths ->
           Site_tally.note_death deaths ~site:(Mem.Header.site_c cells ~off:aoff)
             ~birth:(Mem.Header.birth_c cells ~off:aoff));
        if !run_words = 0 then run_start := off;
        run_words := !run_words + words
      end;
      walk (off + words)
    end
    else flush_run ()
  in
  walk 0;
  !freed

let words_marked t = t.marked_tenured + t.marked_los
let words_marked_tenured t = t.marked_tenured
let objects_marked t = t.marked_objects
let words_scanned t = t.scanned

let site_survivals t =
  match t.sites with
  | None -> Site_tally.empty
  | Some tab -> tab
