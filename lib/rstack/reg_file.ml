type t = { regs : int array }

let create () = { regs = Array.make Trace.num_registers Mem.Value.encoded_zero }

let check r =
  if r < 0 || r >= Trace.num_registers then invalid_arg "Reg_file: bad register"

let get_word t r =
  check r;
  Array.unsafe_get t.regs r

let set_word t r w =
  check r;
  Array.unsafe_set t.regs r w

let get t r = Mem.Value.decode (get_word t r)
let set t r v = set_word t r (Mem.Value.encode v)

let cells t = t.regs

let clear t = Array.fill t.regs 0 Trace.num_registers Mem.Value.encoded_zero
