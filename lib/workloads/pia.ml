(* PIA (Table 1): the Perspective Inversion Algorithm, deciding the
   location of an object in a perspective video image.  The memory shape
   that matters (Section 4): each video frame builds mid-sized transform
   meshes that stay live across many minor collections — long enough to
   be promoted — and then die wholesale when the next frame begins.
   Tenured data that dies quickly is the worst case for generational
   collection, which is why the paper's PIA improves 17-fold as k grows.

   The mesh is a quadtree of displacement nodes; rendering walks the tree
   for every sample point, recursing over scanlines without tail calls
   (the paper reports a 910-frame peak). *)

module R = Gsc.Runtime

let tree_depth = 6
let rows = 100
let cols = 30

(* deterministic per-node displacement *)
let displacement phase level x y =
  (phase * 31) + (level * 17) + (x * 13) + (y * 7) land 0xFFF

(* --- native mirror --- *)

type native_tree =
  | Leaf of int
  | Node of int * native_tree * native_tree * native_tree * native_tree

let rec native_build phase level x y =
  let d = displacement phase level x y in
  if level = tree_depth then Leaf d
  else
    Node
      ( d,
        native_build phase (level + 1) (2 * x) (2 * y),
        native_build phase (level + 1) ((2 * x) + 1) (2 * y),
        native_build phase (level + 1) (2 * x) ((2 * y) + 1),
        native_build phase (level + 1) ((2 * x) + 1) ((2 * y) + 1) )

let rec native_lookup tree level px py =
  match tree with
  | Leaf d -> d
  | Node (d, c00, c10, c01, c11) ->
    let bit = tree_depth - 1 - level in
    let cx = (px lsr bit) land 1 and cy = (py lsr bit) land 1 in
    let child =
      match cx, cy with
      | 0, 0 -> c00
      | 1, 0 -> c10
      | 0, 1 -> c01
      | _ -> c11
    in
    d + native_lookup child (level + 1) px py

let native_phase phase =
  let tree = native_build phase 0 0 0 in
  let rec render row =
    if row = rows then 0
    else begin
      let deeper = native_render_rest tree row in
      deeper
    end
  and native_render_rest tree row =
    let below = if row + 1 = rows then 0 else native_render_rest tree (row + 1) in
    let acc = ref below in
    for c = 0 to cols - 1 do
      let px = (row + c) land ((1 lsl tree_depth) - 1) in
      let py = (row * 3 + c) land ((1 lsl tree_depth) - 1) in
      acc := (!acc + native_lookup tree 0 px py) land 0x3FFFFFFF
    done;
    !acc
  in
  render 0

let native_total phases =
  let acc = ref 0 in
  for p = 1 to phases do
    acc := (!acc + native_phase p) land 0x3FFFFFFF
  done;
  !acc

(* --- simulated version --- *)

let run rt ~scale =
  let s_node = R.register_site rt ~name:"pia.mesh_node" in
  let s_leaf = R.register_site rt ~name:"pia.mesh_leaf" in
  let s_sample = R.register_site rt ~name:"pia.sample_box" in
  (* main: 0 = tree, 1 = scratch *)
  let k_main = R.register_frame rt ~name:"pia.main" ~slots:(Dsl.slots "pp") in
  (* build: 0 = c00, 1 = c10, 2 = c01, 3 = c11, 4 = result *)
  let k_build = R.register_frame rt ~name:"pia.build" ~slots:(Dsl.slots "ppppp") in
  (* lookup: 0 = tree (arg), 1 = child *)
  let k_lookup = R.register_frame rt ~name:"pia.lookup" ~slots:(Dsl.slots "pp") in
  (* render: 0 = tree (arg), 1 = sample box *)
  let k_render = R.register_frame rt ~name:"pia.render" ~slots:(Dsl.slots "pp") in
  (* node record: [I disp; P c00; P c10; P c01; P c11];
     leaf record: [I disp] *)
  (* the call bodies take one int: a node's level and coordinates are
     packed into [cell] (x, y < 2^tree_depth <= 256), and what stays
     fixed for a whole walk (the phase, the sample point) is set before
     it *)
  let cell level x y = (level lsl 16) lor (x lsl 8) lor y in
  let phase = ref 0 in
  let rec build c =
    let level = c lsr 16 and x = (c lsr 8) land 0xFF and y = c land 0xFF in
    let d = displacement !phase level x y in
    if level = tree_depth then
      R.alloc_record1 rt ~site:s_leaf ~mask:0 ~dst:(R.to_slot 4) (R.imm d)
    else begin
      let l = level + 1 in
      R.set rt (R.to_slot 0)
        (R.call0 rt ~key:k_build build (cell l (2 * x) (2 * y)));
      R.set rt (R.to_slot 1)
        (R.call0 rt ~key:k_build build (cell l ((2 * x) + 1) (2 * y)));
      R.set rt (R.to_slot 2)
        (R.call0 rt ~key:k_build build (cell l (2 * x) ((2 * y) + 1)));
      R.set rt (R.to_slot 3)
        (R.call0 rt ~key:k_build build (cell l ((2 * x) + 1) ((2 * y) + 1)));
      R.alloc_record5 rt ~site:s_node ~mask:0b11110 ~dst:(R.to_slot 4)
        (R.imm d) (R.slot 0) (R.slot 1) (R.slot 2) (R.slot 3)
    end;
    R.word rt (R.slot 4)
  in
  let px = ref 0 and py = ref 0 in
  let rec lookup level =
    let d = R.field_int rt ~obj:(R.slot 0) ~idx:0 in
    if R.obj_length rt ~obj:(R.slot 0) = 1 then d
    else begin
      let bit = tree_depth - 1 - level in
      let cx = (!px lsr bit) land 1 and cy = (!py lsr bit) land 1 in
      let idx = 1 + cx + (2 * cy) in
      R.load_field rt ~obj:(R.slot 0) ~idx ~dst:(R.to_slot 1);
      d + R.call1 rt ~key:k_lookup (R.slot 1) lookup (level + 1)
    end
  in
  (* non-tail recursion over scanlines: the stack is [rows] deep while
     the samples of each row are traced *)
  let rec render_rest row =
    let below =
      if row + 1 = rows then 0
      else R.call1 rt ~key:k_render (R.slot 0) render_rest (row + 1)
    in
    let acc = ref below in
    for c = 0 to cols - 1 do
      px := (row + c) land ((1 lsl tree_depth) - 1);
      py := ((row * 3) + c) land ((1 lsl tree_depth) - 1);
      (* short-lived sample box *)
      R.alloc_record2 rt ~site:s_sample ~mask:0 ~dst:(R.to_slot 1)
        (R.imm !px) (R.imm !py);
      acc :=
        (!acc + R.call1 rt ~key:k_lookup (R.slot 0) lookup 0) land 0x3FFFFFFF
    done;
    !acc
  in
  R.call0 rt ~key:k_main (fun () ->
    let total = ref 0 in
    for p = 1 to scale do
      (* the previous phase's mesh dies here *)
      phase := p;
      R.set rt (R.to_slot 0) (R.call0 rt ~key:k_build build (cell 0 0 0));
      let v = R.call1 rt ~key:k_render (R.slot 0) render_rest 0 in
      total := (!total + v) land 0x3FFFFFFF
    done;
    let want = native_total scale in
    if !total <> want then
      failwith (Printf.sprintf "pia: checksum %d, want %d" !total want))
    ()

let workload =
  { Spec.name = "pia";
    description =
      "Perspective Inversion Algorithm stand-in: per-frame quadtree \
       meshes that are promoted and then die (tenured garbage)";
    paper_lines = 2065;
    default_scale = 8;
    scale_range = (1, max_int);
    run }
