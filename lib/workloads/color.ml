(* Color (Table 1): brute-force graph colouring.  We colour a long path
   graph with three colours by depth-first search: one stack frame per
   vertex, so the simulated stack reaches [scale] frames and stays deep
   while solutions are enumerated by toggling the deepest vertices — the
   paper's prototypical deep-stack benchmark (482 frames, 74% GC-time
   reduction from stack markers).

   Enumeration stops after [cap] complete colourings via a simulated
   exception, which also exercises the marker watermark on a deep
   unwind. *)

module R = Gsc.Runtime

let cap_for scale = scale * 40

(* a path of n >= 2 vertices has 3 * 2^(n-1) proper 3-colourings; the
   search stops at the cap.  The count saturates before the shift
   overflows *)
let expected_colourings ~scale =
  let total = if scale - 1 > 60 then max_int else 3 lsl (scale - 1) in
  min (cap_for scale) total

let run rt ~scale =
  let n = scale in
  if n < 2 then invalid_arg "color: scale must be at least 2";
  let cap = cap_for scale in
  let s_assign = R.register_site rt ~name:"color.assign" in
  let s_domain = R.register_site rt ~name:"color.domain" in
  (* main: 0 = counter box, 1 = scratch *)
  let k_main = R.register_frame rt ~name:"color.main" ~slots:(Dsl.slots "pp") in
  (* vertex: 0 = assignment list (arg), 1 = counter box (arg),
     2 = domain list, 3 = extended assignment *)
  let k_vertex =
    R.register_frame rt ~name:"color.vertex" ~slots:(Dsl.slots "pppp")
  in
  (* one vertex per frame: the caller passes the assignment list and the
     counter box *)
  let rec colour v =
    if v = n then begin
      (* complete colouring: bump the counter; escape at the cap *)
      let c = R.field_int rt ~obj:(R.slot 1) ~idx:0 in
      R.store_field rt ~obj:(R.slot 1) ~idx:0 ~ptr:false (R.imm (c + 1));
      if c + 1 >= cap then R.raise_exn rt (R.imm (c + 1))
    end
    else begin
      let prev =
        if R.is_nil rt (R.slot 0) then -1 else Dsl.list_head_int rt ~list:0
      in
      (* materialise the candidate domain as a short-lived list *)
      R.move rt R.nil (R.to_slot 2);
      for c = 2 downto 0 do
        if c <> prev then Dsl.cons_int rt ~site:s_domain ~list:2 c
      done;
      while not (R.is_nil rt (R.slot 2)) do
        let c = Dsl.list_head_int rt ~list:2 in
        R.alloc_record2 rt ~site:s_assign ~mask:0b10 ~dst:(R.to_slot 3)
          (R.imm c) (R.slot 0);
        R.call2 rt ~key:k_vertex (R.slot 3) (R.slot 1) colour (v + 1);
        Dsl.list_advance rt ~list:2
      done
    end
  in
  R.call0 rt ~key:k_main (fun () ->
    R.alloc_record1 rt ~site:s_assign ~mask:0 ~dst:(R.to_slot 0) (R.imm 0);
    let found =
      R.try_with rt
        (fun () ->
          R.call2 rt ~key:k_vertex R.nil (R.slot 0) colour 0;
          R.field_int rt ~obj:(R.slot 0) ~idx:0)
        ~handler:(fun () -> Mem.Value.to_int (R.exn_value rt))
    in
    let want = expected_colourings ~scale in
    if found <> want then
      failwith
        (Printf.sprintf "color: found %d colourings, want %d" found want))
    ()

let workload =
  { Spec.name = "color";
    description = "Brute-force graph colouring (3-colouring a long path)";
    paper_lines = 110;
    default_scale = 400;
    scale_range = (2, max_int);
    run }
