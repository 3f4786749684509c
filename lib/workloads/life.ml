(* Life (Table 1): Conway's game of Life implemented with lists, after
   Reade.  A generation is a list of live-cell coordinates; each step
   builds candidate lists and a fresh generation list, so almost every
   allocation dies within a step — the paper's shallow-stack, high-churn,
   tiny-live-set benchmark.

   Coordinates are packed as (x + 512) * 2048 + (y + 512). *)

module R = Gsc.Runtime

let pack x y = ((x + 512) * 2048) + (y + 512)
let unpack_x c = (c / 2048) - 512
let unpack_y c = (c mod 2048) - 512

(* the eight neighbours, in the order both the simulated step and its
   native mirror visit them *)
let neighbour_offsets =
  [| (-1, -1); (-1, 0); (-1, 1); (0, -1); (0, 1); (1, -1); (1, 0); (1, 1) |]

let neighbours (x, y) =
  Array.to_list (Array.map (fun (dx, dy) -> (x + dx, y + dy)) neighbour_offsets)

(* native mirror used to compute the expected population *)
let native_step cells =
  let module S = Set.Make (struct
    type t = int * int
    let compare = compare
  end) in
  let live = S.of_list cells in
  let candidates =
    S.fold (fun c acc -> List.fold_left (fun a n -> S.add n a) (S.add c acc) (neighbours c))
      live S.empty
  in
  S.fold
    (fun c acc ->
      let n = List.length (List.filter (fun p -> S.mem p live) (neighbours c)) in
      if n = 3 || (n = 2 && S.mem c live) then c :: acc else acc)
    candidates []

let initial_cells =
  (* a glider, a blinker and a block, far apart *)
  [ (0, 0); (1, 1); (1, 2); (0, 2); (-1, 2);           (* glider *)
    (40, 40); (40, 41); (40, 42);                       (* blinker *)
    (-40, -40); (-40, -39); (-39, -40); (-39, -39) ]    (* block *)

let expected_population ~gens =
  let rec go cells n = if n = 0 then cells else go (native_step cells) (n - 1) in
  List.length (go initial_cells gens)

let run rt ~scale =
  let s_cell = R.register_site rt ~name:"life.cell" in
  let s_cand = R.register_site rt ~name:"life.cand" in
  (* main: 0 = generation list, 1 = scratch *)
  let k_main = R.register_frame rt ~name:"life.main" ~slots:(Dsl.slots "pp") in
  (* step: 0 = gen(arg), 1 = candidates, 2 = next gen, 3/4 = cursors *)
  let k_step = R.register_frame rt ~name:"life.step" ~slots:(Dsl.slots "ppppp") in
  (* mem: 0 = list(arg), 1 = cursor *)
  let k_mem = R.register_frame rt ~name:"life.mem" ~slots:(Dsl.slots "pp") in
  (* count: 0 = live list (arg), 1 = cursor *)
  let k_count = R.register_frame rt ~name:"life.count" ~slots:(Dsl.slots "pp") in
  (* the call bodies are built once per run; [member list v] reads its
     list operand in the caller's frame *)
  let member_body v =
    R.move rt (R.slot 0) (R.to_slot 1);
    let found = ref false in
    while (not !found) && not (R.is_nil rt (R.slot 1)) do
      if Dsl.list_head_int rt ~list:1 = v then found := true
      else Dsl.list_advance rt ~list:1
    done;
    !found
  in
  let member list v = R.call1 rt ~key:k_mem list member_body v in
  let live_neighbours_body c =
    let x = unpack_x c and y = unpack_y c in
    let n = ref 0 in
    for k = 0 to Array.length neighbour_offsets - 1 do
      let dx, dy = neighbour_offsets.(k) in
      if member (R.slot 0) (pack (x + dx) (y + dy)) then incr n
    done;
    !n
  in
  let consider v =
    if not (member (R.slot 1) v) then Dsl.cons_int rt ~site:s_cand ~list:1 v
  in
  let step_body () =
    (* candidates: all live cells plus their neighbours, deduplicated *)
    R.move rt R.nil (R.to_slot 1);
    R.move rt (R.slot 0) (R.to_slot 3);
    while not (R.is_nil rt (R.slot 3)) do
      let c = Dsl.list_head_int rt ~list:3 in
      let x = unpack_x c and y = unpack_y c in
      consider c;
      for k = 0 to Array.length neighbour_offsets - 1 do
        let dx, dy = neighbour_offsets.(k) in
        consider (pack (x + dx) (y + dy))
      done;
      Dsl.list_advance rt ~list:3
    done;
    (* apply the rules *)
    R.move rt R.nil (R.to_slot 2);
    R.move rt (R.slot 1) (R.to_slot 4);
    while not (R.is_nil rt (R.slot 4)) do
      let c = Dsl.list_head_int rt ~list:4 in
      let n = R.call1 rt ~key:k_count (R.slot 0) live_neighbours_body c in
      let alive = member (R.slot 0) c in
      if n = 3 || (n = 2 && alive) then
        Dsl.cons_int rt ~site:s_cell ~list:2 c;
      Dsl.list_advance rt ~list:4
    done;
    R.word rt (R.slot 2)
  in
  R.call0 rt ~key:k_main (fun () ->
    R.move rt R.nil (R.to_slot 0);
    List.iter
      (fun (x, y) -> Dsl.cons_int rt ~site:s_cell ~list:0 (pack x y))
      initial_cells;
    for _ = 1 to scale do
      R.set rt (R.to_slot 0) (R.call1 rt ~key:k_step (R.slot 0) step_body ())
    done;
    let pop = Dsl.list_length rt ~list:0 ~cursor:1 in
    let want = expected_population ~gens:scale in
    if pop <> want then
      failwith (Printf.sprintf "life: population %d, want %d" pop want))
    ()

let workload =
  { Spec.name = "life";
    description = "The game of Life implemented using lists (Reade 1989)";
    paper_lines = 146;
    default_scale = 60;
    scale_range = (1, max_int);
    run }
