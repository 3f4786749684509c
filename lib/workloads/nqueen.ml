(* Nqueen (Table 1): the N-queens problem.  Partial placements are
   persistent cons lists that mostly die on backtracking, while complete
   solutions are copied into an accumulating solution set — the handful
   of allocation sites behind the solution set are the paper's textbook
   pretenuring targets (old% = 99.88 in Figure 2).

   The safety check recurses down the placement list without a tail call,
   giving the paper's ~2n stack depth. *)

module R = Gsc.Runtime

let expected_solutions = [| 1; 1; 0; 0; 2; 10; 4; 40; 92; 352; 724 |]
(* indexed by n, for n <= 10 *)

let run rt ~scale =
  let n = scale in
  if n < 1 || n > 10 then invalid_arg "nqueen: scale must be in 1..10";
  let s_pos = R.register_site rt ~name:"nq.pos" in          (* dies young *)
  let s_try = R.register_site rt ~name:"nq.try_box" in      (* dies young *)
  let s_sol_cell = R.register_site rt ~name:"nq.sol_cell" in (* long-lived *)
  let s_sol_list = R.register_site rt ~name:"nq.sol_list" in (* long-lived *)
  (* main: 0 = solutions list, 1 = scratch *)
  let k_main = R.register_frame rt ~name:"nq.main" ~slots:(Dsl.slots "pp") in
  (* place: 0 = placed list (arg), 1 = solutions (arg), 2 = candidate box,
     3 = extended list *)
  let k_place = R.register_frame rt ~name:"nq.place" ~slots:(Dsl.slots "pppp") in
  (* safe: 0 = placed list (arg), 1 = cursor *)
  let k_safe = R.register_frame rt ~name:"nq.safe" ~slots:(Dsl.slots "pp") in
  (* copy: 0 = placed (arg), 1 = solutions (arg), 2 = copy being built *)
  let k_copy = R.register_frame rt ~name:"nq.copy" ~slots:(Dsl.slots "ppp") in
  (* Is placing a queen in column [col] at row [row] safe, given the list
     of already-placed columns (most recent row first)?  Recursive and
     non-tail, like the SML original. *)
  (* the column under test is fixed for a whole [safe] walk *)
  let safe_col = ref 0 in
  let rec safe_from dist =
    if R.is_nil rt (R.slot 0) then true
    else begin
      let col = !safe_col in
      let c = Dsl.list_head_int rt ~list:0 in
      if c = col || c = col + dist || c = col - dist then false
      else begin
        R.load_field rt ~obj:(R.slot 0) ~idx:1 ~dst:(R.to_slot 1);
        (* non-tail: the && forces work after the recursive call *)
        let deeper = R.call1 rt ~key:k_safe (R.slot 1) safe_from (dist + 1) in
        deeper && c <> col
      end
    end
  in
  (* copy a complete placement into long-lived solution cells and cons it
     onto the solution list; returns the new solutions list *)
  let record_solution () =
    R.move rt R.nil (R.to_slot 2);
    while not (R.is_nil rt (R.slot 0)) do
      let c = Dsl.list_head_int rt ~list:0 in
      Dsl.cons_int rt ~site:s_sol_cell ~list:2 c;
      Dsl.list_advance rt ~list:0
    done;
    R.alloc_record2 rt ~site:s_sol_list ~mask:0b11 ~dst:(R.to_slot 1)
      (R.slot 2) (R.slot 1);
    R.word rt (R.slot 1)
  in
  let rec place row =
    if row = n then begin
      R.set rt (R.to_slot 1)
        (R.call2 rt ~key:k_copy (R.slot 0) (R.slot 1) record_solution ());
      R.word rt (R.slot 1)
    end
    else begin
      for col = 0 to n - 1 do
        (* a short-lived box per attempt: the paper's nqueens allocates
           heavily per candidate; dead on arrival, so unrooted at once *)
        R.alloc_record2 rt ~site:s_try ~mask:0 ~dst:(R.to_slot 2)
          (R.imm col) (R.imm row);
        R.move rt R.nil (R.to_slot 2);
        safe_col := col;
        if R.call1 rt ~key:k_safe (R.slot 0) safe_from 1 then begin
          R.alloc_record2 rt ~site:s_pos ~mask:0b10 ~dst:(R.to_slot 3)
            (R.imm col) (R.slot 0);
          R.set rt (R.to_slot 1)
            (R.call2 rt ~key:k_place (R.slot 3) (R.slot 1) place (row + 1))
        end
      done;
      R.word rt (R.slot 1)
    end
  in
  R.call0 rt ~key:k_main (fun () ->
    R.move rt R.nil (R.to_slot 0);
    R.set rt (R.to_slot 0)
      (R.call2 rt ~key:k_place R.nil (R.slot 0) place 0);
    let count = Dsl.list_length rt ~list:0 ~cursor:1 in
    let want = expected_solutions.(n) in
    if count <> want then
      failwith (Printf.sprintf "nqueen: %d solutions, want %d" count want))
    ()

let workload =
  { Spec.name = "nqueen";
    description = "The N-queens problem for n = 10";
    paper_lines = 73;
    default_scale = 10;
    scale_range = (1, 10);
    run }
