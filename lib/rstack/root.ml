type t = {
  cells : int array;
  index : int;
}

module Buf = struct
  (* Roots come in runs from one array (a frame's slots from the stack's
     words array, the globals from theirs), so the cell array is stored
     once per run and only the indexes once per root: a push stores no
     pointer unless it starts a run.  Run [r] covers the indexes
     [run_end.(r - 1), run_end.(r)) (from 0 for the first run). *)
  type nonrec t = {
    mutable run_cells : int array array;
    mutable run_end : int array;
    mutable runs : int;
    mutable index : int array;
    mutable len : int;
  }

  let create () =
    { run_cells = Array.make 16 [||];
      run_end = Array.make 16 0;
      runs = 0;
      index = Array.make 64 0;
      len = 0 }

  let clear b =
    b.len <- 0;
    b.runs <- 0

  let length b = b.len

  let grow_index b =
    let index = Array.make (2 * Array.length b.index) 0 in
    Array.blit b.index 0 index 0 b.len;
    b.index <- index

  let grow_runs b =
    let cap = 2 * Array.length b.run_end in
    let run_cells = Array.make cap [||] and run_end = Array.make cap 0 in
    Array.blit b.run_cells 0 run_cells 0 b.runs;
    Array.blit b.run_end 0 run_end 0 b.runs;
    b.run_cells <- run_cells;
    b.run_end <- run_end

  let push b cells i =
    if b.len = Array.length b.index then grow_index b;
    Array.unsafe_set b.index b.len i;
    b.len <- b.len + 1;
    let r = b.runs in
    if r > 0 && Array.unsafe_get b.run_cells (r - 1) == cells then
      Array.unsafe_set b.run_end (r - 1) b.len
    else begin
      if r = Array.length b.run_end then grow_runs b;
      Array.unsafe_set b.run_cells r cells;
      Array.unsafe_set b.run_end r b.len;
      b.runs <- r + 1
    end

  let iter b f env =
    let start = ref 0 in
    for r = 0 to b.runs - 1 do
      let cells = Array.unsafe_get b.run_cells r in
      let stop = Array.unsafe_get b.run_end r in
      for k = !start to stop - 1 do
        f env cells (Array.unsafe_get b.index k)
      done;
      start := stop
    done
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
