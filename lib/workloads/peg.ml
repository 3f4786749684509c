(* Peg (Table 1): peg solitaire on the 15-hole triangular board.  The
   board is a pointer array whose cells are swapped between two shared
   PEG / EMPTY marker records; every applied or undone move performs
   three pointer stores through the write barrier, making this by far
   the most mutation-heavy benchmark — the paper's Peg logs four orders
   of magnitude more pointer updates than anything else and suffers
   accordingly under the sequential store buffer.

   The search counts complete solutions (one peg left) within a node
   budget and escapes through a simulated exception. *)

module R = Gsc.Runtime

let size = 15

(* (from, over, to) jumps of the 5-row triangle *)
let moves =
  let index r c = (r * (r + 1) / 2) + c in
  let inside r c = r >= 0 && r <= 4 && c >= 0 && c <= r in
  let dirs = [ (0, 1); (1, 0); (1, 1); (0, -1); (-1, 0); (-1, -1) ] in
  let acc = ref [] in
  for r = 0 to 4 do
    for c = 0 to r do
      List.iter
        (fun (dr, dc) ->
          let r1 = r + dr and c1 = c + dc in
          let r2 = r + (2 * dr) and c2 = c + (2 * dc) in
          if inside r1 c1 && inside r2 c2 then
            acc := (index r c, index r1 c1, index r2 c2) :: !acc)
        dirs
    done
  done;
  Array.of_list (List.rev !acc)

let initial_hole = 4

(* Native mirror with identical move order and node budget, used to
   compute the expected solution count. *)
let expected_solutions ~node_budget =
  let board = Array.make size true in
  board.(initial_hole) <- false;
  let nodes = ref 0 and sols = ref 0 in
  let exception Done in
  let rec dfs pegs =
    incr nodes;
    if !nodes > node_budget then raise Done;
    if pegs = 1 then incr sols
    else
      for m = 0 to Array.length moves - 1 do
        let f, o, t = moves.(m) in
        if board.(f) && board.(o) && not board.(t) then begin
          board.(f) <- false;
          board.(o) <- false;
          board.(t) <- true;
          dfs (pegs - 1);
          board.(f) <- true;
          board.(o) <- true;
          board.(t) <- false
        end
      done
  in
  (try dfs (size - 1) with Done -> ());
  !sols

let run rt ~scale =
  let node_budget = scale in
  let s_marker = R.register_site rt ~name:"peg.marker" in
  let s_board = R.register_site rt ~name:"peg.board" in
  let s_try = R.register_site rt ~name:"peg.try_box" in
  (* main: 0 = board, 1 = peg marker, 2 = empty marker, 3 = counter box *)
  let k_main = R.register_frame rt ~name:"peg.main" ~slots:(Dsl.slots "pppp") in
  (* dfs: 0 = board (arg), 1 = counters (arg), 2 = try box *)
  let k_dfs = R.register_frame rt ~name:"peg.dfs" ~slots:(Dsl.slots "ppp") in
  (* board in slot 0, counters in slot 1 of the dfs frame *)
  let occupied i =
    R.load_field rt ~obj:(R.slot 0) ~idx:i ~dst:(R.to_slot 2);
    R.field_int rt ~obj:(R.slot 2) ~idx:0 = 1
  in
  let set_cell i ~peg =
    R.load_field rt ~obj:(R.slot 1) ~idx:(if peg then 2 else 3)
      ~dst:(R.to_slot 2);
    R.store_field rt ~obj:(R.slot 0) ~idx:i ~ptr:true (R.slot 2)
  in
  let rec dfs pegs =
    let nodes = R.field_int rt ~obj:(R.slot 1) ~idx:0 in
    R.store_field rt ~obj:(R.slot 1) ~idx:0 ~ptr:false (R.imm (nodes + 1));
    if nodes + 1 > node_budget then R.raise_exn rt (R.imm 0);
    if pegs = 1 then begin
      let sols = R.field_int rt ~obj:(R.slot 1) ~idx:1 in
      R.store_field rt ~obj:(R.slot 1) ~idx:1 ~ptr:false (R.imm (sols + 1))
    end
    else
      for m = 0 to Array.length moves - 1 do
        let f, o, t = moves.(m) in
        (* a short-lived box per attempted move *)
        R.alloc_record2 rt ~site:s_try ~mask:0 ~dst:(R.to_slot 2) (R.imm f)
          (R.imm t);
        if occupied f && occupied o && not (occupied t) then begin
          set_cell f ~peg:false;
          set_cell o ~peg:false;
          set_cell t ~peg:true;
          R.call2 rt ~key:k_dfs (R.slot 0) (R.slot 1) dfs (pegs - 1);
          set_cell f ~peg:true;
          set_cell o ~peg:true;
          set_cell t ~peg:false
        end
      done
  in
  R.call0 rt ~key:k_main (fun () ->
    R.alloc_record1 rt ~site:s_marker ~mask:0 ~dst:(R.to_slot 1) (R.imm 1);
    R.alloc_record1 rt ~site:s_marker ~mask:0 ~dst:(R.to_slot 2) (R.imm 0);
    R.alloc_ptr_array rt ~site:s_board ~dst:(R.to_slot 0) ~len:size;
    for i = 0 to size - 1 do
      let marker = if i = initial_hole then 2 else 1 in
      R.store_field rt ~obj:(R.slot 0) ~idx:i ~ptr:true (R.slot marker)
    done;
    (* counters record: field 0 = nodes, field 1 = solutions,
       fields 2/3 = the two markers so the dfs frame can reach them *)
    R.alloc_record4 rt ~site:s_board ~mask:0b1100 ~dst:(R.to_slot 3)
      (R.imm 0) (R.imm 0) (R.slot 1) (R.slot 2);
    let sols =
      R.try_with rt
        (fun () ->
          R.call2 rt ~key:k_dfs (R.slot 0) (R.slot 3) dfs (size - 1);
          R.field_int rt ~obj:(R.slot 3) ~idx:1)
        ~handler:(fun () -> R.field_int rt ~obj:(R.slot 3) ~idx:1)
    in
    let want = expected_solutions ~node_budget in
    if sols <> want then
      failwith (Printf.sprintf "peg: %d solutions, want %d" sols want))
    ()

let workload =
  { Spec.name = "peg";
    description =
      "Peg solitaire on the triangular 15-hole board, mutating the board \
       in place (very high pointer-update rate)";
    paper_lines = 458;
    default_scale = 20000;
    scale_range = (1, max_int);
    run }
