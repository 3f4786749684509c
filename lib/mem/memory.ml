(* Cells are stored in [int array]s using {!Value.encode}, so a simulated
   word costs exactly one unboxed host word. *)

type block = {
  mutable cells : int array option; (* [None] once freed *)
  mutable freed_at : int;           (* event stamp of the last free *)
}

type t = {
  blocks : block Support.Vec.t;
  free_ids : int Support.Vec.t;
  mutable allocated : int;
  mutable events : int;             (* alloc/free event counter *)
}

let zero_cell = Value.encode Value.zero

let create () =
  { blocks = Support.Vec.create ();
    free_ids = Support.Vec.create ();
    allocated = 0;
    events = 0 }

(* register [cells] as a live block under the id the block table hands
   out next: the most recently freed one, else a new one *)
let register t cells =
  t.events <- t.events + 1;
  let id =
    if Support.Vec.is_empty t.free_ids then begin
      Support.Vec.push t.blocks { cells = Some cells; freed_at = -1 };
      Support.Vec.length t.blocks - 1
    end
    else begin
      let id = Support.Vec.pop t.free_ids in
      (Support.Vec.get t.blocks id).cells <- Some cells;
      id
    end
  in
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
  if id >= Support.Vec.length t.blocks then
    invalid_arg "Memory: address in unknown block";
  let b = Support.Vec.get t.blocks id in
  match b.cells with
  | None ->
    invalid_arg
      (Printf.sprintf
         "Memory: access to freed block (id %d freed at event %d, now %d)" id
         b.freed_at t.events)
  | Some cells -> cells

let retire_block t base =
  let cells = find t base in
  t.events <- t.events + 1;
  t.allocated <- t.allocated - Array.length cells;
  let b = Support.Vec.get t.blocks (Addr.block base) in
  b.cells <- None;
  b.freed_at <- t.events;
  Support.Vec.push t.free_ids (Addr.block base);
  cells

let free_block t base = ignore (retire_block t base : int array)

let block_words t addr = Array.length (find t addr)

let live_block t addr =
  let id = Addr.block addr in
  id < Support.Vec.length t.blocks
  && (Support.Vec.get t.blocks id).cells <> None

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

let blit t ~src ~dst ~words =
  let scells = find t src and dcells = find t dst in
  let soff = Addr.offset src and doff = Addr.offset dst in
  if soff + words > Array.length scells || doff + words > Array.length dcells then
    invalid_arg "Memory.blit: out of range";
  Array.blit scells soff dcells doff words

let allocated_words t = t.allocated

let bytes_per_word = 8
