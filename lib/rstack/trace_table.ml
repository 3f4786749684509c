type entry = {
  name : string;
  slots : Trace.slot_trace array;
  regs : Trace.reg_trace array;
}

(* a registered entry with its register transfer precomputed as two
   bitmasks: bit [r] of [ptr_regs] is set for [Reg_ptr], of [keep_regs]
   for [Reg_callee_save] *)
type compiled = {
  entry : entry;
  ptr_regs : int;
  keep_regs : int;
}

type t = { entries : compiled Support.Vec.t }

(* register statuses are bits of one host int *)
let () =
  if Trace.num_registers > Sys.int_size then
    failwith "Trace_table: Trace.num_registers does not fit in an int"

let create () = { entries = Support.Vec.create () }

let validate entry =
  if Array.length entry.regs <> Trace.num_registers then
    invalid_arg "Trace_table.register: register descriptor has wrong arity";
  let nslots = Array.length entry.slots in
  let check_slot i = if i < 0 || i >= nslots then
    invalid_arg "Trace_table.register: slot index out of frame" in
  let check_reg r = if r < 0 || r >= Trace.num_registers then
    invalid_arg "Trace_table.register: register index out of range" in
  let check = function
    | Trace.Ptr | Trace.Non_ptr -> ()
    | Trace.Callee_save r -> check_reg r
    | Trace.Compute (Trace.Type_in_slot i) -> check_slot i
    | Trace.Compute (Trace.Type_in_reg r) -> check_reg r
  in
  Array.iter check entry.slots

let reg_mask regs trace =
  let m = ref 0 in
  Array.iteri (fun r t -> if t = trace then m := !m lor (1 lsl r)) regs;
  !m

let register t entry =
  validate entry;
  Support.Vec.push t.entries
    { entry;
      ptr_regs = reg_mask entry.regs Trace.Reg_ptr;
      keep_regs = reg_mask entry.regs Trace.Reg_callee_save };
  Support.Vec.length t.entries - 1

let compiled t key =
  if key < 0 || key >= Support.Vec.length t.entries then
    invalid_arg "Trace_table.lookup: unknown key";
  Support.Vec.get t.entries key

let lookup t key = (compiled t key).entry

let reg_status_after t key status =
  let c = compiled t key in
  c.ptr_regs lor (status land c.keep_regs)


let size t = Support.Vec.length t.entries

let plain_regs () = Array.make Trace.num_registers Trace.Reg_non_ptr

let pp_entry ~key fmt entry =
  Format.fprintf fmt "Key=%#x (%s)@\n" key entry.name;
  Format.fprintf fmt "Frame Size = %d@\n" (Array.length entry.slots);
  Array.iter (fun s -> Format.fprintf fmt "%a@\n" Trace.pp_slot_trace s) entry.slots;
  Format.fprintf fmt "Trace Info on Registers@\n"
