(* Segregated-fit backend.  [classes] is the ascending size ladder in
   object words (header included); bucket [i] holds freed grants [w]
   with [classes.(i) <= w < classes.(i+1)].  Grants wider than the top
   class live in a coalescing oversize {!Holes} list.  Buckets never
   coalesce — that is the trade the backend makes for O(1) frees. *)

let default_classes = [ 4; 8; 16; 32; 64; 128; 256 ]

type t = {
  arena : Arena.t;
  classes : int array;
  buckets : (Mem.Addr.t * int) list array;  (* exact (base, words) *)
  oversize : Holes.t;
  mutable bucket_words : int;
}

let make ?(classes = default_classes) arena =
  let classes = Array.of_list classes in
  if Array.length classes = 0 then invalid_arg "Size_class: empty ladder";
  Array.iteri
    (fun i c ->
      if c < (Mem.Header.header_words ()) then
        invalid_arg "Size_class: class below header_words";
      if i > 0 && c <= classes.(i - 1) then
        invalid_arg "Size_class: ladder not ascending")
    classes;
  {
    arena;
    classes;
    buckets = Array.make (Array.length classes) [];
    oversize = Holes.create (Arena.mem arena);
    bucket_words = 0;
  }

let of_space ?classes mem space = make ?classes (Arena.of_space mem space)

let growable ?classes mem ~segment_words =
  make ?classes (Arena.growable mem ~segment_words)

let top_class t = t.classes.(Array.length t.classes - 1)

(* Largest class index whose size is <= words; callers guarantee
   [words >= classes.(0)] or fall into the smallest bucket. *)
let bucket_of t words =
  let idx = ref 0 in
  Array.iteri (fun i c -> if c <= words then idx := i) t.classes;
  !idx

let push_bucket t base words =
  let cells = Mem.Memory.cells (Arena.mem t.arena) base in
  Mem.Header.write_filler_c cells ~off:(Mem.Addr.offset base) ~words;
  let i = bucket_of t words in
  t.buckets.(i) <- (base, words) :: t.buckets.(i);
  t.bucket_words <- t.bucket_words + words

let free t addr ~words =
  if words < (Mem.Header.header_words ()) then invalid_arg "Size_class.free";
  if words > top_class t then Holes.insert t.oversize addr ~words
  else push_bucket t addr words

(* Pop the first entry in buckets [>= start] that fits [words] under the
   remainder rule; the remainder is re-freed (possibly into a smaller
   bucket). *)
let take_bucketed t words =
  let fits w = w = words || w >= words + (Mem.Header.header_words ()) in
  let start = bucket_of t words in
  let found = ref None in
  let i = ref start in
  while !found = None && !i < Array.length t.buckets do
    let rec go = function
      | [] -> None
      | ((_, w) as e) :: rest when fits w -> Some (e, rest)
      | e :: rest -> Option.map (fun (x, l) -> (x, e :: l)) (go rest)
    in
    (match go t.buckets.(!i) with
    | Some ((base, w), rest) ->
      t.buckets.(!i) <- rest;
      t.bucket_words <- t.bucket_words - w;
      found := Some (base, w)
    | None -> ());
    incr i
  done;
  match !found with
  | None -> Mem.Addr.null
  | Some (base, w) ->
    if w > words then push_bucket t (Mem.Addr.add base words) (w - words);
    base

let alloc t words =
  if words <= 0 then invalid_arg "Size_class.alloc";
  let reused =
    if words > top_class t then Holes.take_first_fit t.oversize words
    else take_bucketed t words
  in
  if Mem.Addr.is_null reused then Arena.alloc t.arena words else reused

let contains t addr = Arena.contains t.arena addr
let iter_objects t f = Arena.iter_objects t.arena f

let free_words t = t.bucket_words + Holes.free_words t.oversize
let live_words t = Arena.used_words t.arena - free_words t

let frag_into t (f : Backend.frag) =
  let blocks =
    Array.fold_left (fun acc l -> acc + List.length l) 0 t.buckets
    + Holes.count t.oversize
  in
  let largest =
    Array.fold_left
      (fun acc l -> List.fold_left (fun acc (_, w) -> max acc w) acc l)
      (Holes.largest t.oversize) t.buckets
  in
  f.Backend.free_words <- free_words t;
  f.free_blocks <- blocks;
  f.largest_hole <- largest

let destroy t =
  Array.iteri (fun i _ -> t.buckets.(i) <- []) t.buckets;
  t.bucket_words <- 0;
  Holes.clear t.oversize;
  Arena.destroy t.arena

module B = struct
  type nonrec t = t

  let kind = Backend.Size_class
  let alloc = alloc
  let free = free
  let contains = contains
  let iter_objects = iter_objects
  let live_words = live_words
  let frag_into = frag_into
  let destroy = destroy
end

let backend t = Backend.Packed ((module B), t)
