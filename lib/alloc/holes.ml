type hole = {
  base : Mem.Addr.t;
  words : int;
}

type t = {
  mem : Mem.Memory.t;
  mutable list : hole list;  (* address-ordered: (block, offset) ascending *)
  mutable free_words : int;
}

let create mem = { mem; list = []; free_words = 0 }

let order a b =
  compare
    (Mem.Addr.block a.base, Mem.Addr.offset a.base)
    (Mem.Addr.block b.base, Mem.Addr.offset b.base)

let adjacent a b =
  Mem.Addr.block a.base = Mem.Addr.block b.base
  && Mem.Addr.offset a.base + a.words = Mem.Addr.offset b.base

let cover t h =
  let cells = Mem.Memory.cells t.mem h.base in
  Mem.Header.write_filler_c cells ~off:(Mem.Addr.offset h.base) ~words:h.words

(* Insert in address order, merging with the neighbouring hole on either
   side when contiguous in the same block; the merged extent is covered
   by one fresh filler so a linear walk sees exactly one pseudo-object
   per hole. *)
let insert t base ~words =
  if words < (Mem.Header.header_words ()) then invalid_arg "Holes.insert";
  let h = { base; words } in
  let rec place = function
    | [] -> [ h ]
    | x :: rest when order h x < 0 ->
      if adjacent h x then { base = h.base; words = h.words + x.words } :: rest
      else h :: x :: rest
    | x :: rest ->
      if adjacent x h then begin
        let merged = { base = x.base; words = x.words + h.words } in
        match rest with
        | y :: rest' when adjacent merged y ->
          { merged with words = merged.words + y.words } :: rest'
        | _ -> merged :: rest
      end
      else x :: place rest
  in
  t.list <- place t.list;
  t.free_words <- t.free_words + words;
  (* re-cover the hole that now spans [base]; neighbours absorbed it *)
  let covering =
    List.find
      (fun x ->
        Mem.Addr.block x.base = Mem.Addr.block base
        && Mem.Addr.offset x.base <= Mem.Addr.offset base
        && Mem.Addr.offset base < Mem.Addr.offset x.base + x.words)
      t.list
  in
  cover t covering

(* Whether hole [h] can serve [words] under the filler rule: remainder 0
   or >= header_words (a 1-2 word tail could not stay walkable). *)
let fits words h =
  h.words = words || h.words >= words + Mem.Header.header_words ()

let rec first_fit words = function
  | [] -> Mem.Addr.null
  | h :: rest -> if fits words h then h.base else first_fit words rest

(* [l] with a [words] grant taken from the start of the hole at [base]:
   the hole leaves the list, or its remainder stays listed in its place
   and is re-covered *)
let rec take t ~base words = function
  | [] -> []
  | h :: rest when Mem.Addr.equal h.base base ->
    if h.words = words then rest
    else begin
      let rem = { base = Mem.Addr.add h.base words; words = h.words - words } in
      cover t rem;
      rem :: rest
    end
  | h :: rest -> h :: take t ~base words rest

(* The search allocates nothing, so a miss (an empty or unfitting list,
   the common case on the pretenured path) costs no host allocation. *)
let take_first_fit t words =
  if words <= 0 then invalid_arg "Holes.take_first_fit";
  let base = first_fit words t.list in
  if not (Mem.Addr.is_null base) then begin
    t.list <- take t ~base words t.list;
    t.free_words <- t.free_words - words
  end;
  base

let free_words t = t.free_words
let count t = List.length t.list
let largest t = List.fold_left (fun acc h -> max acc h.words) 0 t.list
let clear t =
  t.list <- [];
  t.free_words <- 0
