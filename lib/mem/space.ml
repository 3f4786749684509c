type t = {
  base : Addr.t;
  cells : int array;  (* the block handle, resolved once at [create] *)
  words : int;
  mutable next : Addr.t;
  mutable written : int;
      (* high-water mark of the frontier as of the last [reset]: the
         prefix [retire] must zero (nothing is written past the
         frontier, but a reset space keeps its old contents) *)
  (* Used-words frontier for parallel chunk carving: only meaningful
     between [par_begin] and [par_end], when drain workers bump it with
     CAS instead of racing on [next] (an [Addr.t] cannot live in an
     [Atomic.t] cell usefully, and single-domain callers should not pay
     an atomic on every [alloc]). *)
  par_used : int Atomic.t;
}

let of_block mem base =
  let cells = Memory.cells mem base in
  (* the frontier of a full space must be an address: [grant] relies on
     it (raises [Addr.add]'s error for a block past the offset field) *)
  ignore (Addr.add base (Array.length cells) : Addr.t);
  { base;
    cells;
    words = Array.length cells;
    next = base;
    written = 0;
    par_used = Atomic.make 0 }

let create mem ~words =
  if words <= 0 then invalid_arg "Space.create";
  of_block mem (Memory.alloc_block mem ~words)

let reissue mem cells = of_block mem (Memory.reissue_block mem cells)

let base t = t.base
let cells t = t.cells
let frontier t = t.next
let size_words t = t.words
let used_words t = Addr.diff t.next t.base
let free_words t = t.words - used_words t

(* [next] and [base] share a block, and [of_block] made sure the full
   space's frontier fits Addr's offset field, so the room test reads
   their offsets and a grant that fits stays inside the block: no block
   comparison, no range check *)
let grant t words =
  if words < 0 then invalid_arg "Space.grant";
  let a = t.next in
  if t.words - (Addr.offset a - Addr.offset t.base) < words then Addr.null
  else begin
    t.next <- Addr.unsafe_add a words;
    a
  end

let par_begin t = Atomic.set t.par_used (used_words t)

let alloc_chunk_atomic t ~min_words ~pref_words =
  if min_words <= 0 || pref_words < min_words then
    invalid_arg "Space.alloc_chunk_atomic";
  (* a CAS loop on the integer frontier, so concurrent carvers never
     overlap *)
  let rec try_carve () =
    let used = Atomic.get t.par_used in
    let free = t.words - used in
    if free < min_words then None
    else begin
      let grant =
        if free >= pref_words then pref_words
        else if free = min_words || free >= min_words + (Header.header_words ())
        then free
        else
          (* granting [free] would leave the caller a tail remainder of
             1-2 words: too small for a filler object.  Grant
             [min_words] and strand the 1-2 words past the frontier
             instead; nothing ever walks beyond the frontier, so the
             gap is invisible. *)
          min_words
      in
      if Atomic.compare_and_set t.par_used used (used + grant) then
        Some (Addr.add t.base used, grant)
      else try_carve ()
    end
  in
  try_carve ()

let par_end t = t.next <- Addr.add t.base (Atomic.get t.par_used)

let contains t addr =
  (not (Addr.is_null addr)) && Addr.block addr = Addr.block t.base

let reset t =
  t.written <- max t.written (used_words t);
  t.next <- t.base

let release t mem = Memory.free_block mem t.base

let retire t mem =
  let written = max t.written (used_words t) in
  let cells = Memory.retire_block mem t.base in
  Array.fill cells (Addr.offset t.base) written Value.encoded_zero;
  cells

let iter_objects t mem f =
  let rec walk a =
    if Addr.diff a t.base < used_words t then begin
      let words = Header.object_words_at mem a in
      f a;
      walk (Addr.add a words)
    end
  in
  walk t.base
