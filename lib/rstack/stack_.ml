type t = {
  table : Trace_table.t;
  mutable words : int array;    (* every frame's slots, bottom frame first *)
  mutable keys : int array;     (* per depth: trace-table key *)
  mutable bases : int array;    (* per depth: first slot in [words] *)
  mutable serials : int array;  (* per depth: birth stamp *)
  mutable marks : bool array;   (* per depth: a marker stub is installed *)
  mutable depth : int;
  mutable top_base : int;       (* the top frame's base and size, *)
  mutable top_size : int;       (* 0 and 0 on an empty stack *)
  mutable serial : int;
  mutable max_depth : int;
}

let create table =
  { table;
    words = Array.make 256 Mem.Value.encoded_zero;
    keys = Array.make 64 0;
    bases = Array.make 64 0;
    serials = Array.make 64 0;
    marks = Array.make 64 false;
    depth = 0;
    top_base = 0;
    top_size = 0;
    serial = 0;
    max_depth = 0 }

let table t = t.table
let depth t = t.depth
let words t = t.words

let grown a n x =
  let b = Array.make (2 * Array.length a) x in
  Array.blit a 0 b 0 n;
  b

let grow_frames t =
  let d = t.depth in
  t.keys <- grown t.keys d 0;
  t.bases <- grown t.bases d 0;
  t.serials <- grown t.serials d 0;
  t.marks <- grown t.marks d false

(* a fresh array: root cells gathered before the growth still name the
   old one, which is why no root may outlive its collection *)
let grow_words t need =
  let cap = ref (2 * Array.length t.words) in
  while !cap < need do
    cap := 2 * !cap
  done;
  let words = Array.make !cap Mem.Value.encoded_zero in
  Array.blit t.words 0 words 0 (t.top_base + t.top_size);
  t.words <- words

let push t ~key entry =
  let traces = entry.Trace_table.slots in
  let size = Array.length traces in
  let d = t.depth in
  if d = Array.length t.keys then grow_frames t;
  let base = t.top_base + t.top_size in
  if base + size > Array.length t.words then grow_words t (base + size);
  (* every slot is written, so nothing a popped or unwound frame left at
     these offsets shows: null pointers where the trace says pointer (a
     zeroed stack word is the null pointer), zero elsewhere *)
  let words = t.words in
  for i = 0 to size - 1 do
    Array.unsafe_set words (base + i)
      (match Array.unsafe_get traces i with
       | Trace.Ptr | Trace.Callee_save _ -> Mem.Value.encoded_null
       | Trace.Non_ptr | Trace.Compute _ -> Mem.Value.encoded_zero)
  done;
  Array.unsafe_set t.keys d key;
  Array.unsafe_set t.bases d base;
  Array.unsafe_set t.serials d t.serial;
  Array.unsafe_set t.marks d false;
  t.serial <- t.serial + 1;
  t.depth <- d + 1;
  t.top_base <- base;
  t.top_size <- size;
  if d + 1 > t.max_depth then t.max_depth <- d + 1

(* [d] is below the current depth, so [bases.(d)] is the end of frame
   [d - 1] *)
let shrink_to t d =
  t.depth <- d;
  if d = 0 then begin
    t.top_base <- 0;
    t.top_size <- 0
  end
  else begin
    let base = Array.unsafe_get t.bases (d - 1) in
    t.top_base <- base;
    t.top_size <- Array.unsafe_get t.bases d - base
  end

let pop t =
  let d = t.depth in
  if d = 0 then invalid_arg "Stack_.pop: empty stack";
  let marked = Array.unsafe_get t.marks (d - 1) in
  shrink_to t (d - 1);
  marked

let unwind_to t ~depth:d =
  if d < 0 || d > t.depth then invalid_arg "Stack_.unwind_to";
  if d < t.depth then shrink_to t d

(* The scan makes four of the reads below per decoded frame; the
   release build's inlining budget (dune-workspace) inlines each of them
   into its caller, across modules. *)

let get_word t i =
  if i < 0 || i >= t.top_size then invalid_arg "Frame.get";
  Array.unsafe_get t.words (t.top_base + i)

let set_word t i w =
  if i < 0 || i >= t.top_size then invalid_arg "Frame.set";
  Array.unsafe_set t.words (t.top_base + i) w

let get t i = Mem.Value.decode (get_word t i)
let set t i v = set_word t i (Mem.Value.encode v)

let check t i =
  if i < 0 || i >= t.depth then invalid_arg "Stack_: depth index out of range"

let key_at t i =
  check t i;
  Array.unsafe_get t.keys i

let base_at t i =
  check t i;
  Array.unsafe_get t.bases i

let size_at t i =
  check t i;
  if i = t.depth - 1 then t.top_size
  else Array.unsafe_get t.bases (i + 1) - Array.unsafe_get t.bases i

let serial_at t i =
  check t i;
  Array.unsafe_get t.serials i

let mark_at t i =
  check t i;
  Array.unsafe_get t.marks i

let set_mark t i =
  check t i;
  Array.unsafe_set t.marks i true

let next_serial t = t.serial

let count_new_frames t ~since_serial =
  (* frames are pushed with increasing serials, so the new ones form a
     suffix of the stack *)
  let i = ref (t.depth - 1) in
  while !i >= 0 && Array.unsafe_get t.serials !i > since_serial do
    decr i
  done;
  t.depth - 1 - !i

let max_depth t = t.max_depth
