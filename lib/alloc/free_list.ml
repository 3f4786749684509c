type t = {
  arena : Arena.t;
  holes : Holes.t;
}

let make arena =
  { arena; holes = Holes.create (Arena.mem arena) }

let of_space mem space = make (Arena.of_space mem space)
let growable mem ~segment_words = make (Arena.growable mem ~segment_words)

(* First-fit over the coalesced hole list, falling back to the frontier.
   The fallback keeps a hole-free region identical to a bump backend. *)
let alloc t words =
  let a = Holes.take_first_fit t.holes words in
  if Mem.Addr.is_null a then Arena.alloc t.arena words else a

let free t addr ~words = Holes.insert t.holes addr ~words
let contains t addr = Arena.contains t.arena addr
let iter_objects t f = Arena.iter_objects t.arena f
let live_words t = Arena.used_words t.arena - Holes.free_words t.holes

let frag_into t (f : Backend.frag) =
  f.free_words <- Holes.free_words t.holes;
  f.free_blocks <- Holes.count t.holes;
  f.largest_hole <- Holes.largest t.holes

let destroy t =
  Holes.clear t.holes;
  Arena.destroy t.arena

module B = struct
  type nonrec t = t

  let kind = Backend.Free_list
  let alloc = alloc
  let free = free
  let contains = contains
  let iter_objects = iter_objects
  let live_words = live_words
  let frag_into = frag_into
  let destroy = destroy
end

let backend t = Backend.Packed ((module B), t)
