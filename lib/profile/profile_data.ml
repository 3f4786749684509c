type site = {
  site : int;
  name : string;
  alloc_bytes : int;
  alloc_count : int;
  old_fraction : float;
  avg_age_kb : float;
  copied_bytes : int;
}

type t = {
  sites : site list;
  edges : (int * int) list;
  total_alloc_bytes : int;
  total_copied_bytes : int;
}

let select_pretenure_sites t ~cutoff ~min_objects =
  List.filter_map
    (fun s ->
      if s.old_fraction >= cutoff && s.alloc_count >= min_objects then Some s.site
      else None)
    t.sites

let targeted_shares t ~sites =
  let in_set site = List.mem site sites in
  let copied, alloc =
    List.fold_left
      (fun (c, a) s ->
        if in_set s.site then (c + s.copied_bytes, a + s.alloc_bytes) else (c, a))
      (0, 0) t.sites
  in
  ( Support.Units.ratio (float_of_int copied) (float_of_int t.total_copied_bytes),
    Support.Units.ratio (float_of_int alloc) (float_of_int t.total_alloc_bytes) )

(* A line-oriented format:
     total <alloc> <copied>
     site <id> <alloc_bytes> <alloc_count> <old_fraction> <avg_age_kb>
          <copied_bytes> <name...>
     edge <from> <to> *)

let to_string t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "total %d %d\n" t.total_alloc_bytes t.total_copied_bytes);
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "site %d %d %d %h %h %d %s\n" s.site s.alloc_bytes
           s.alloc_count s.old_fraction s.avg_age_kb s.copied_bytes s.name))
    t.sites;
  List.iter
    (fun (a, b) -> Buffer.add_string buf (Printf.sprintf "edge %d %d\n" a b))
    t.edges;
  Buffer.contents buf

let of_string text =
  let sites = ref [] and edges = ref [] in
  let total_alloc = ref 0 and total_copied = ref 0 in
  let parse_line line =
    let bad () = invalid_arg ("Profile_data.of_string: bad line: " ^ line) in
    try
      match String.split_on_char ' ' (String.trim line) with
      | [] | [ "" ] -> ()
      | "total" :: a :: c :: [] ->
        total_alloc := int_of_string a;
        total_copied := int_of_string c
      | "site" :: id :: ab :: ac :: old :: age :: cb :: name_parts ->
        sites :=
          { site = int_of_string id;
            name = String.concat " " name_parts;
            alloc_bytes = int_of_string ab;
            alloc_count = int_of_string ac;
            old_fraction = float_of_string old;
            avg_age_kb = float_of_string age;
            copied_bytes = int_of_string cb }
          :: !sites
      | "edge" :: a :: b :: [] ->
        edges := (int_of_string a, int_of_string b) :: !edges
      | _ -> bad ()
    with Failure _ -> bad ()
  in
  String.split_on_char '\n' text |> List.iter parse_line;
  { sites = List.rev !sites;
    edges = List.rev !edges;
    total_alloc_bytes = !total_alloc;
    total_copied_bytes = !total_copied }

let save t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

let load ~path =
  match
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    really_input_string ic (in_channel_length ic)
  with
  | exception Sys_error msg -> Error msg
  | text ->
    (match of_string text with
     | t -> Ok t
     | exception Invalid_argument msg -> Error msg)
