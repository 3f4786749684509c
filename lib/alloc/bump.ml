type t = {
  arena : Arena.t;
  mutable dead_words : int;
  mutable dead_blocks : int;
  mutable dead_largest : int;
}

let make arena = { arena; dead_words = 0; dead_blocks = 0; dead_largest = 0 }
let of_space mem space = make (Arena.of_space mem space)
let growable mem ~segment_words = make (Arena.growable mem ~segment_words)

let alloc t words = Arena.alloc t.arena words

(* A bump backend never reuses freed words: the grant is covered by a
   filler (keeping the walk intact) and counted as dead.  This is the
   fragmentation baseline the reusing backends are measured against. *)
let free t addr ~words =
  if words < (Mem.Header.header_words ()) then invalid_arg "Bump.free";
  let cells = Mem.Memory.cells (Arena.mem t.arena) addr in
  Mem.Header.write_filler_c cells ~off:(Mem.Addr.offset addr) ~words;
  t.dead_words <- t.dead_words + words;
  t.dead_blocks <- t.dead_blocks + 1;
  t.dead_largest <- max t.dead_largest words

let contains t addr = Arena.contains t.arena addr
let iter_objects t f = Arena.iter_objects t.arena f
let live_words t = Arena.used_words t.arena - t.dead_words

let frag_into t (f : Backend.frag) =
  f.free_words <- t.dead_words;
  f.free_blocks <- t.dead_blocks;
  f.largest_hole <- t.dead_largest

let destroy t = Arena.destroy t.arena

module B = struct
  type nonrec t = t

  let kind = Backend.Bump
  let alloc = alloc
  let free = free
  let contains = contains
  let iter_objects = iter_objects
  let live_words = live_words
  let frag_into = frag_into
  let destroy = destroy
end

let backend t = Backend.Packed ((module B), t)
