(* Cells are stored in [int array]s using {!Value.encode}, so a simulated
   word costs exactly one unboxed host word. *)

(* The block table is flat: [table.(id)] is block [id]'s cell array, so
   resolving an address is two dependent loads (the table, then the
   block).  A freed id holds the empty array, which no live block can
   be ([alloc_block] and [reissue_block] refuse empty blocks).  Ids at or
   past [issued] were never handed out. *)
type t = {
  mutable table : int array array;
  mutable freed_at : int array;     (* event stamp of each id's last free *)
  mutable issued : int;             (* ids handed out so far *)
  free_ids : int Support.Vec.t;
  mutable allocated : int;
  mutable events : int;             (* alloc/free event counter *)
}

let zero_cell = Value.encode Value.zero

let create () =
  { table = [||];
    freed_at = [||];
    issued = 0;
    free_ids = Support.Vec.create ();
    allocated = 0;
    events = 0 }

(* a fresh id past the issued ones, growing the table by doubling *)
let fresh_id t =
  let id = t.issued in
  let cap = Array.length t.table in
  if id = cap then begin
    let cap' = max 16 (2 * cap) in
    let table = Array.make cap' [||] and freed_at = Array.make cap' (-1) in
    Array.blit t.table 0 table 0 cap;
    Array.blit t.freed_at 0 freed_at 0 cap;
    t.table <- table;
    t.freed_at <- freed_at
  end;
  t.issued <- id + 1;
  id

(* register [cells] as a live block under the id the block table hands
   out next: the most recently freed one, else a new one *)
let register t cells =
  t.events <- t.events + 1;
  let id =
    if Support.Vec.is_empty t.free_ids then fresh_id t
    else Support.Vec.pop t.free_ids
  in
  t.table.(id) <- cells;
  t.allocated <- t.allocated + Array.length cells;
  Addr.make ~block:id ~offset:0

let alloc_block t ~words =
  if words <= 0 then invalid_arg "Memory.alloc_block";
  register t (Array.make words zero_cell)

let reissue_block t cells =
  if Array.length cells = 0 then invalid_arg "Memory.reissue_block";
  register t cells

let find t addr =
  let id = Addr.block addr in
  if id >= t.issued then invalid_arg "Memory: address in unknown block";
  (* [0 <= id < issued <= Array.length t.table] *)
  let cells = Array.unsafe_get t.table id in
  if Array.length cells = 0 then
    invalid_arg
      (Printf.sprintf
         "Memory: access to freed block (id %d freed at event %d, now %d)" id
         t.freed_at.(id) t.events)
  else cells

let retire_block t base =
  let cells = find t base in
  let id = Addr.block base in
  t.events <- t.events + 1;
  t.allocated <- t.allocated - Array.length cells;
  t.table.(id) <- [||];
  t.freed_at.(id) <- t.events;
  Support.Vec.push t.free_ids id;
  cells

let free_block t base = ignore (retire_block t base : int array)

let block_words t addr = Array.length (find t addr)

let live_block t addr =
  let id = Addr.block addr in
  id < t.issued && Array.length t.table.(id) > 0

let get t addr =
  let cells = find t addr in
  let off = Addr.offset addr in
  if off >= Array.length cells then invalid_arg "Memory.get: offset out of block";
  Value.decode cells.(off)

let cells = find

let set t addr v =
  let cells = find t addr in
  let off = Addr.offset addr in
  if off >= Array.length cells then invalid_arg "Memory.set: offset out of block";
  cells.(off) <- Value.encode v

(* one word at a time: [Array.blit] into a major-heap [int array] is a
   C call that runs the write barrier on every word.  The annotations
   matter: a loop over ['a array] would store through the barrier
   again. *)
let copy_cells (src : int array) soff (dst : int array) doff words =
  if soff < 0 || doff < 0 || words < 0 || soff + words > Array.length src
     || doff + words > Array.length dst
  then invalid_arg "Memory.copy_cells: out of range";
  for i = 0 to words - 1 do
    Array.unsafe_set dst (doff + i) (Array.unsafe_get src (soff + i))
  done

let blit t ~src ~dst ~words =
  let scells = find t src and dcells = find t dst in
  let soff = Addr.offset src and doff = Addr.offset dst in
  if soff + words > Array.length scells || doff + words > Array.length dcells then
    invalid_arg "Memory.blit: out of range";
  Array.blit scells soff dcells doff words

let allocated_words t = t.allocated

let bytes_per_word = 8
