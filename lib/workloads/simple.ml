(* Simple (Table 1): the SIMPLE spherical fluid-dynamics kernel.  We run
   a Jacobi-style relaxation over a 2-D grid in fixed-point arithmetic:
   each iteration allocates a fresh grid (one non-pointer array per row
   plus a spine of row records) computed from the previous one.  A grid
   survives exactly one iteration — long enough to be promoted out of the
   nursery and hence an effective pretenuring target, matching the
   paper's Table 6 where Simple's copied bytes drop ~44%.

   Boundary cells are held at fixed values; interior cells relax toward
   the average of their four neighbours.  Rows are processed by non-tail
   recursion, so each iteration holds one frame per row while it works —
   the paper's SIMPLE averages a 16-frame stack with a 243-frame peak. *)

module R = Gsc.Runtime

let fraction_bits = 12

let boundary_value i j rows cols =
  (* deterministic, varied boundary: corners hot, edges cool *)
  ((i * 7919) + (j * 104729)) mod (1 lsl fraction_bits)
  |> fun v -> if i = 0 || j = 0 || i = rows - 1 || j = cols - 1 then v else 0

let native_run ~rows ~cols ~iters =
  let grid =
    Array.init rows (fun i ->
      Array.init cols (fun j -> boundary_value i j rows cols))
  in
  let cur = ref grid in
  for _ = 1 to iters do
    let prev = !cur in
    let next =
      Array.init rows (fun i ->
        Array.init cols (fun j ->
          if i = 0 || j = 0 || i = rows - 1 || j = cols - 1 then prev.(i).(j)
          else
            (prev.(i - 1).(j) + prev.(i + 1).(j) + prev.(i).(j - 1)
             + prev.(i).(j + 1))
            / 4))
    in
    cur := next
  done;
  Array.fold_left
    (fun acc row -> Array.fold_left (fun a v -> (a + v) land 0x3FFFFFFF) acc row)
    0 !cur

let run rt ~scale =
  let rows = 20 and cols = 64 in
  let iters = scale in
  let s_row = R.register_site rt ~name:"simple.row" in      (* one iteration *)
  let s_spine = R.register_site rt ~name:"simple.spine" in  (* one iteration *)
  let s_scratch = R.register_site rt ~name:"simple.scratch" in
  (* main: 0 = current grid spine, 1 = next spine, 2/3 = row ptrs, 4 = tmp *)
  let k_main = R.register_frame rt ~name:"simple.main" ~slots:(Dsl.slots "ppppp") in
  (* relax_row: 0 = prev spine (arg), 1 = out row, 2/3/4 = row ptrs,
     5 = scratch, 6 = next spine (arg) *)
  let k_row = R.register_frame rt ~name:"simple.relax_row" ~slots:(Dsl.slots "ppppppp") in
  (* the grid spine is a pointer array of rows *)
  let row_of spine i dst = R.load_field rt ~obj:spine ~idx:i ~dst in
  (* one frame per row, recursively, so the stack deepens to [rows]
     while an iteration is in flight *)
  let rec relax_rows i =
    (* args arrive in slots 0 and 1; keep the next spine in slot 6,
       freeing slot 1 for the output row *)
    R.move rt (R.slot 1) (R.to_slot 6);
    R.alloc_nonptr_array rt ~site:s_row ~dst:(R.to_slot 1) ~len:cols;
    row_of (R.slot 0) i (R.to_slot 2);
    if i > 0 then row_of (R.slot 0) (i - 1) (R.to_slot 3);
    if i < rows - 1 then row_of (R.slot 0) (i + 1) (R.to_slot 4);
    for j = 0 to cols - 1 do
      let v =
        if i = 0 || j = 0 || i = rows - 1 || j = cols - 1 then
          R.field_int rt ~obj:(R.slot 2) ~idx:j
        else begin
          (* a scratch box per cell: the paper's SIMPLE allocates
             heavily inside its stencil loops *)
          R.alloc_record1 rt ~site:s_scratch ~mask:0 ~dst:(R.to_slot 5)
            (R.imm j);
          (R.field_int rt ~obj:(R.slot 3) ~idx:j
           + R.field_int rt ~obj:(R.slot 4) ~idx:j
           + R.field_int rt ~obj:(R.slot 2) ~idx:(j - 1)
           + R.field_int rt ~obj:(R.slot 2) ~idx:(j + 1))
          / 4
        end
      in
      R.store_field rt ~obj:(R.slot 1) ~idx:j ~ptr:false (R.imm v)
    done;
    (* store the finished row into the next spine, then recurse for the
       remaining rows with this frame still live (non-tail: the read
       below keeps it) *)
    R.store_field rt ~obj:(R.slot 6) ~idx:i ~ptr:true (R.slot 1);
    if i + 1 < rows then
      R.call2 rt ~key:k_row (R.slot 0) (R.slot 6) relax_rows (i + 1);
    ignore (R.field_int rt ~obj:(R.slot 1) ~idx:0 : int)
  in
  R.call0 rt ~key:k_main (fun () ->
    (* the first grid, from the boundary values; rows are built in slot 4 *)
    R.alloc_ptr_array rt ~site:s_spine ~dst:(R.to_slot 0) ~len:rows;
    for i = 0 to rows - 1 do
      R.alloc_nonptr_array rt ~site:s_row ~dst:(R.to_slot 4) ~len:cols;
      for j = 0 to cols - 1 do
        R.store_field rt ~obj:(R.slot 4) ~idx:j ~ptr:false
          (R.imm (boundary_value i j rows cols))
      done;
      R.store_field rt ~obj:(R.slot 0) ~idx:i ~ptr:true (R.slot 4)
    done;
    for _ = 1 to iters do
      (* build the next grid from the current one *)
      R.alloc_ptr_array rt ~site:s_spine ~dst:(R.to_slot 1) ~len:rows;
      R.call2 rt ~key:k_row (R.slot 0) (R.slot 1) relax_rows 0;
      R.move rt (R.slot 1) (R.to_slot 0)
    done;
    (* checksum the final grid *)
    let acc = ref 0 in
    for i = 0 to rows - 1 do
      row_of (R.slot 0) i (R.to_slot 2);
      for j = 0 to cols - 1 do
        acc := (!acc + R.field_int rt ~obj:(R.slot 2) ~idx:j) land 0x3FFFFFFF
      done
    done;
    let want = native_run ~rows ~cols ~iters in
    if !acc <> want then
      failwith (Printf.sprintf "simple: checksum %d, want %d" !acc want))
    ()

let workload =
  { Spec.name = "simple";
    description =
      "A spherical fluid-dynamics kernel: Jacobi relaxation over \
       per-iteration grids (fixed point)";
    paper_lines = 870;
    default_scale = 60;
    scale_range = (1, max_int);
    run }
