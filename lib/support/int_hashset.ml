(* Open addressing with linear probing; [-1] marks a free slot, so keys
   are non-negative.  The table doubles when it is half full, which
   keeps probe runs short; between doublings [add] allocates nothing. *)

type t = {
  mutable slots : int array;
  mutable count : int;
}

let free = -1

let create () = { slots = Array.make 64 free; count = 0 }

(* Fibonacci hashing: the multiplier spreads keys that differ only in
   their high bits over the low bits the mask keeps *)
let slot slots key =
  let h = key * 0x9E3779B97F4A7C1 in
  (h lxor (h lsr 32)) land (Array.length slots - 1)

let rec probe slots key i =
  let k = Array.unsafe_get slots i in
  if k = key || k = free then i
  else probe slots key ((i + 1) land (Array.length slots - 1))

let grow t =
  let old = t.slots in
  let slots = Array.make (2 * Array.length old) free in
  Array.iter
    (fun key -> if key <> free then slots.(probe slots key (slot slots key)) <- key)
    old;
  t.slots <- slots

let add t key =
  if key < 0 then invalid_arg "Int_hashset.add: negative key";
  let i = probe t.slots key (slot t.slots key) in
  if t.slots.(i) = key then false
  else begin
    t.slots.(i) <- key;
    t.count <- t.count + 1;
    if 2 * t.count > Array.length t.slots then grow t;
    true
  end
