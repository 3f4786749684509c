type t = {
  table : Trace_table.t;
  frames : Frame.t Support.Vec.t;
  mutable serial : int;
  mutable max_depth : int;
}

let create table =
  { table; frames = Support.Vec.create (); serial = 0; max_depth = 0 }

let table t = t.table
let depth t = Support.Vec.length t.frames

let push t ~key entry =
  let traces = entry.Trace_table.slots in
  let frame = Frame.create ~key ~size:(Array.length traces) ~serial:t.serial in
  (* fresh slots read as null pointers where the trace says pointer (a
     zeroed stack word is the null pointer), and as zero elsewhere *)
  for i = 0 to Array.length traces - 1 do
    match traces.(i) with
    | Trace.Ptr | Trace.Callee_save _ -> frame.Frame.slots.(i) <- Mem.Value.encoded_null
    | Trace.Non_ptr | Trace.Compute _ -> ()
  done;
  t.serial <- t.serial + 1;
  Support.Vec.push t.frames frame;
  t.max_depth <- max t.max_depth (depth t);
  frame

let pop t =
  if depth t = 0 then invalid_arg "Stack_.pop: empty stack";
  Support.Vec.pop t.frames

let top t =
  if depth t = 0 then invalid_arg "Stack_.top: empty stack";
  Support.Vec.top t.frames

let frame_at t i = Support.Vec.get t.frames i

let unwind_to t ~depth:d =
  if d < 0 || d > depth t then invalid_arg "Stack_.unwind_to";
  Support.Vec.truncate t.frames d

let next_serial t = t.serial

let count_new_frames t ~since_serial =
  (* frames are pushed with increasing serials, so the new ones form a
     suffix of the stack *)
  let i = ref (depth t - 1) in
  while !i >= 0 && (Support.Vec.get t.frames !i).Frame.serial > since_serial do
    decr i
  done;
  depth t - 1 - !i

let max_depth t = t.max_depth
