type t = {
  base : Addr.t;
  words : int;
  mutable limit : int;
  (* Soft capacity in words, [used_words t <= limit <= words]; [alloc]
     refuses grants past it.  The adaptive control plane shrinks and
     regrows the nursery through this without remapping the block; every
     other space keeps the default [limit = words] and behaves exactly
     as before.  Chunk carving ([alloc_chunk_atomic]) stays bound by
     the physical size — to-spaces and parallel copy targets must never
     lose room mid-collection. *)
  mutable next : Addr.t;
  (* Used-words frontier for parallel chunk carving: only meaningful
     between [par_begin] and [par_end], when drain workers bump it with
     CAS instead of racing on [next] (an [Addr.t] cannot live in an
     [Atomic.t] cell usefully, and single-domain callers should not pay
     an atomic on every [alloc]). *)
  par_used : int Atomic.t;
}

let create mem ~words =
  if words <= 0 then invalid_arg "Space.create";
  let base = Memory.alloc_block mem ~words in
  { base; words; limit = words; next = base; par_used = Atomic.make 0 }

let base t = t.base
let frontier t = t.next
let size_words t = t.words
let used_words t = Addr.diff t.next t.base
let free_words t = t.words - used_words t

let limit_words t = t.limit

let set_limit t words =
  t.limit <- max (used_words t) (min words t.words)

let alloc t words =
  if words < 0 then invalid_arg "Space.alloc";
  if t.limit - used_words t < words then None
  else begin
    let a = t.next in
    t.next <- Addr.add t.next words;
    Some a
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

let reset t = t.next <- t.base

let release t mem = Memory.free_block mem t.base

let iter_objects t mem f =
  let rec walk a =
    if Addr.diff a t.base < used_words t then begin
      let words = Header.object_words_at mem a in
      f a;
      walk (Addr.add a words)
    end
  in
  walk t.base
