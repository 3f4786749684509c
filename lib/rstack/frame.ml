type t = {
  key : int;
  slots : int array;
  serial : int;
  mutable marked : bool;
}

let create ~key ~size ~serial =
  { key; slots = Array.make size Mem.Value.encoded_zero; serial; marked = false }

let get_word t i =
  if i < 0 || i >= Array.length t.slots then invalid_arg "Frame.get";
  Array.unsafe_get t.slots i

let set_word t i w =
  if i < 0 || i >= Array.length t.slots then invalid_arg "Frame.set";
  Array.unsafe_set t.slots i w

let get t i = Mem.Value.decode (get_word t i)
let set t i v = set_word t i (Mem.Value.encode v)

let size t = Array.length t.slots
