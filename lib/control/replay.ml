let mem_int members k =
  match List.assoc_opt k members with
  | Some (Obs.Json.Num f) -> int_of_float f
  | _ -> 0

let mem_str members k =
  match List.assoc_opt k members with
  | Some (Obs.Json.Str s) -> s
  | _ -> ""

(* The collection being rebuilt from its records: its per-site rows are
   emitted between [gc_begin] and [gc_end].  [pretenure] records land
   outside collections (mutator side) and go straight into the open
   window, as the online feed counts them. *)
type building = {
  b_gc : int;
  mutable b_survival : (int * int * int * int) list;
  mutable b_alloc : (int * int * int) list;
}

let of_lines params ~pretenured lines =
  let ctl = Controller.create params ~pretenured in
  let decisions = ref [] in
  let cur = ref None in
  let fold members =
    let gc = mem_int members "gc" in
    match mem_str members "ev" with
    | "gc_begin" -> cur := Some { b_gc = gc; b_survival = []; b_alloc = [] }
    | "site_survival" ->
      (match !cur with
       | Some b ->
         b.b_survival <-
           (mem_int members "site", mem_int members "objects",
            mem_int members "first_objects", mem_int members "words")
           :: b.b_survival
       | None -> ())
    | "site_alloc" ->
      (match !cur with
       | Some b ->
         b.b_alloc <-
           (mem_int members "site", mem_int members "objects",
            mem_int members "words")
           :: b.b_alloc
       | None -> ())
    | "pretenure" -> Controller.note_pretenured ctl (mem_int members "site")
    | "gc_end" ->
      (match !cur with
       | Some b when b.b_gc = gc ->
         cur := None;
         let ds =
           Controller.observe ctl
             { Controller.o_survival = b.b_survival; o_alloc = b.b_alloc }
         in
         List.iter (fun d -> decisions := (gc, d) :: !decisions) ds
       | Some _ | None ->
         (* truncated head: a gc_end without its gc_begin cannot be
            rebuilt into a faithful observation *)
         cur := None)
    | _ -> ()
  in
  let rec go n = function
    | [] -> Ok ()
    | "" :: rest -> go (n + 1) rest
    | line :: rest ->
      (match Obs.Json.parse line with
       | exception Failure msg -> Error (Printf.sprintf "line %d: %s" n msg)
       | j ->
         (match Obs.Schema.validate j with
          | Error msg -> Error (Printf.sprintf "line %d: %s" n msg)
          | Ok () ->
            (match j with
             | Obs.Json.Obj members -> fold members
             | _ -> ());
            go (n + 1) rest))
  in
  match go 1 lines with
  | Error _ as e -> e
  | Ok () -> Ok (List.rev !decisions)

let of_file params ~pretenured path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec read acc =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | line -> read (line :: acc)
  in
  of_lines params ~pretenured (read [])

let verify ~derived ~traced =
  let show_d (gc, (d : Controller.decision)) =
    Printf.sprintf "gc=%d window=%d %s %d->%d [%s]" gc
      d.Controller.d_window d.Controller.d_knob d.Controller.d_old
      d.Controller.d_new
      (String.concat " "
         (List.map
            (fun (k, v) -> Printf.sprintf "%s=%d" k v)
            d.Controller.d_signals))
  in
  let show_u (u : Obs.Profile.policy_row) =
    Printf.sprintf "gc=%d window=%d %s %d->%d [%s]" u.Obs.Profile.u_gc
      u.Obs.Profile.u_window u.Obs.Profile.u_knob u.Obs.Profile.u_old
      u.Obs.Profile.u_new
      (String.concat " "
         (List.map
            (fun (k, v) -> Printf.sprintf "%s=%d" k v)
            u.Obs.Profile.u_signals))
  in
  let rec go n ds us =
    match ds, us with
    | [], [] -> Ok n
    | ((gc, d) as dd) :: ds', u :: us' ->
      if
        gc = u.Obs.Profile.u_gc
        && d.Controller.d_window = u.Obs.Profile.u_window
        && d.Controller.d_knob = u.Obs.Profile.u_knob
        && d.Controller.d_old = u.Obs.Profile.u_old
        && d.Controller.d_new = u.Obs.Profile.u_new
        && d.Controller.d_signals = u.Obs.Profile.u_signals
      then go (n + 1) ds' us'
      else
        Error
          (Printf.sprintf "decision %d diverges: derived %s, traced %s"
             (n + 1) (show_d dd) (show_u u))
    | dd :: _, [] ->
      Error
        (Printf.sprintf "decision %d derived but not traced: %s" (n + 1)
           (show_d dd))
    | [], u :: _ ->
      Error
        (Printf.sprintf "decision %d traced but not derived: %s" (n + 1)
           (show_u u))
  in
  go 0 derived traced
