let card_words = 64

type t = {
  ncards : int;
  marks : Bytes.t;
  (* crossing.(c) = offset of the last object start at or before the
     card's first word; -1 when the card is not covered yet *)
  crossing : int array;
  mutable covered_words : int;  (* prefix of the space with objects *)
  mutable total : int;
}

let create ~space_words =
  let ncards = (space_words + card_words - 1) / card_words in
  { ncards;
    marks = Bytes.make ncards '\000';
    crossing = Array.make ncards (-1);
    covered_words = 0;
    total = 0 }

let record t ~offset =
  let c = offset / card_words in
  if c < 0 || c >= t.ncards then invalid_arg "Card_table.record";
  Bytes.set t.marks c '\001';
  t.total <- t.total + 1

let cover t iter =
  iter (fun ~offset ~words ->
    (* this object is the last-known start for every card whose first
       word lies within [offset, offset + words) *)
    let first_card = (offset + card_words - 1) / card_words in
    let last_card = (offset + words - 1) / card_words in
    (* the card containing the object start keeps its earlier crossing if
       one exists (an earlier object may straddle into it) *)
    let start_card = offset / card_words in
    if t.crossing.(start_card) < 0 then t.crossing.(start_card) <- offset;
    for c = first_card to min last_card (t.ncards - 1) do
      t.crossing.(c) <- offset
    done;
    t.covered_words <- max t.covered_words (offset + words))

let marked_cards t =
  let acc = ref [] in
  for c = t.ncards - 1 downto 0 do
    if Bytes.get t.marks c = '\001' then acc := c :: !acc
  done;
  !acc

let clear_marks t = Bytes.fill t.marks 0 t.ncards '\000'

let drain_marked t f =
  (* snapshot and clear the mark bytes first: cards marked by [f] itself
     (edges re-remembered under an aging nursery) are not processed this
     round, and their marks survive for the next collection *)
  let snapshot = Bytes.copy t.marks in
  clear_marks t;
  for c = 0 to t.ncards - 1 do
    if Bytes.unsafe_get snapshot c = '\001' then f c
  done

let card_range t c =
  if c < 0 || c >= t.ncards then invalid_arg "Card_table.card_range";
  (c * card_words, min ((c + 1) * card_words) t.covered_words)

let crossing t c =
  if c < 0 || c >= t.ncards then invalid_arg "Card_table.crossing";
  let x = t.crossing.(c) in
  if x < 0 then None else Some x

let reset t =
  clear_marks t;
  Array.fill t.crossing 0 t.ncards (-1);
  t.covered_words <- 0

let total_recorded t = t.total

let marked_count t =
  let n = ref 0 in
  for c = 0 to t.ncards - 1 do
    if Bytes.get t.marks c = '\001' then incr n
  done;
  !n
