type t = {
  cells : int array;
  index : int;
}

module Buf = struct
  type root = t

  type nonrec t = {
    mutable cells : int array array;
    mutable index : int array;
    mutable len : int;
  }

  let create () = { cells = Array.make 64 [||]; index = Array.make 64 0; len = 0 }

  let clear b = b.len <- 0

  let length b = b.len

  let grow b =
    let cap = 2 * Array.length b.index in
    let cells = Array.make cap [||] and index = Array.make cap 0 in
    Array.blit b.cells 0 cells 0 b.len;
    Array.blit b.index 0 index 0 b.len;
    b.cells <- cells;
    b.index <- index

  let push b cells i =
    if b.len = Array.length b.index then grow b;
    Array.unsafe_set b.cells b.len cells;
    Array.unsafe_set b.index b.len i;
    b.len <- b.len + 1

  let iter b f env =
    for k = 0 to b.len - 1 do
      f env (Array.unsafe_get b.cells k) (Array.unsafe_get b.index k)
    done

  let get b k : root = { cells = b.cells.(k); index = b.index.(k) }
end

module Batch = struct
  type t = {
    capacity : int;
    emit : int array array -> int array -> unit;
    cells : int array array;
    index : int array;
    mutable len : int;
  }

  let create ~capacity ~emit =
    if capacity <= 0 then invalid_arg "Root.Batch.create";
    { capacity;
      emit;
      cells = Array.make capacity [||];
      index = Array.make capacity 0;
      len = 0 }

  let flush b =
    if b.len > 0 then begin
      let cells = Array.sub b.cells 0 b.len in
      let index = Array.sub b.index 0 b.len in
      b.len <- 0;
      b.emit cells index
    end

  let push b cells i =
    b.cells.(b.len) <- cells;
    b.index.(b.len) <- i;
    b.len <- b.len + 1;
    if b.len = b.capacity then flush b
end
