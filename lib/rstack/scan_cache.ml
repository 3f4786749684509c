type t = {
  mutable serials : int array;
  mutable statuses : int array;  (* register status after each frame *)
  mutable stops : int array;     (* end of each frame's range in [slots] *)
  mutable len : int;
  mutable slots : int array;     (* root slot indexes, frame after frame *)
  mutable nslots : int;
}

let create () =
  { serials = Array.make 64 0;
    statuses = Array.make 64 0;
    stops = Array.make 64 0;
    len = 0;
    slots = Array.make 256 0;
    nslots = 0 }

let length t = t.len

let check t i =
  if i < 0 || i >= t.len then invalid_arg "Scan_cache: frame index out of range"

let serial t i =
  check t i;
  Array.unsafe_get t.serials i

let reg_status_after t i =
  check t i;
  Array.unsafe_get t.statuses i

let slots_start t i =
  check t i;
  if i = 0 then 0 else Array.unsafe_get t.stops (i - 1)

let slots_stop t i =
  check t i;
  Array.unsafe_get t.stops i

let slot t k = t.slots.(k)

let truncate t n =
  if n < t.len then t.len <- max 0 n;
  t.nslots <- (if t.len = 0 then 0 else t.stops.(t.len - 1))

let grown a n =
  let b = Array.make (2 * Array.length a) 0 in
  Array.blit a 0 b 0 n;
  b

let add_slot t s =
  if t.nslots = Array.length t.slots then t.slots <- grown t.slots t.nslots;
  Array.unsafe_set t.slots t.nslots s;
  t.nslots <- t.nslots + 1

let add_frame t ~serial ~reg_status =
  if t.len = Array.length t.serials then begin
    t.serials <- grown t.serials t.len;
    t.statuses <- grown t.statuses t.len;
    t.stops <- grown t.stops t.len
  end;
  let i = t.len in
  Array.unsafe_set t.serials i serial;
  Array.unsafe_set t.statuses i reg_status;
  Array.unsafe_set t.stops i t.nslots;
  t.len <- i + 1
