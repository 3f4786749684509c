type t = {
  cutoff : float;
  min_objects : int;
  sites : int list;
  no_scan : int list;
}

(* The one builder behind both derivations: the only place sites are
   put in canonical order and the scan-free subset is derived. *)
let make ~cutoff ~min_objects ~scan_elision ~sites ~edges =
  let sites = List.sort_uniq compare sites in
  let no_scan =
    if scan_elision then
      Site_flow.Int_set.elements
        (Site_flow.scan_free ~edges ~pretenured:(Site_flow.Int_set.of_list sites))
    else []
  in
  { cutoff; min_objects; sites; no_scan }

let of_profile p ~cutoff ~min_objects ~scan_elision =
  make ~cutoff ~min_objects ~scan_elision ~edges:p.Obs.Profile.edges
    ~sites:(Obs.Profile.select_pretenure p ~cutoff ~min_objects)

let of_profile_data data ~cutoff ~min_objects ~scan_elision =
  make ~cutoff ~min_objects ~scan_elision
    ~edges:data.Heap_profile.Profile_data.edges
    ~sites:
      (Heap_profile.Profile_data.select_pretenure_sites data ~cutoff
         ~min_objects)

let to_json t =
  let num f = Obs.Json.Num f in
  let ints l = Obs.Json.List (List.map (fun i -> num (float_of_int i)) l) in
  Obs.Json.Obj
    [ ("v", num (float_of_int Obs.Event.version));
      ("kind", Obs.Json.Str "pretenure_policy");
      ("cutoff", num t.cutoff);
      ("min_objects", num (float_of_int t.min_objects));
      ("sites", ints t.sites);
      ("no_scan", ints t.no_scan) ]

let int_list_of name = function
  | Obs.Json.List items ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | Obs.Json.Num f :: rest when Float.is_integer f ->
        go (int_of_float f :: acc) rest
      | _ -> Error (Printf.sprintf "policy field %S must list integers" name)
    in
    go [] items
  | _ -> Error (Printf.sprintf "policy field %S must be an array" name)

let of_json j =
  match j with
  | Obs.Json.Obj members ->
    let field name =
      match List.assoc_opt name members with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "policy is missing field %S" name)
    in
    let ( let* ) = Result.bind in
    let* v = field "v" in
    let* () =
      match v with
      | Obs.Json.Num f
        when Float.is_integer f && int_of_float f = Obs.Event.version ->
        Ok ()
      | Obs.Json.Num f when Float.is_integer f ->
        Error
          (Printf.sprintf
             "policy version %d not supported (this build reads version %d)"
             (int_of_float f) Obs.Event.version)
      | _ -> Error "policy field \"v\" must be an integer"
    in
    let* () =
      match List.assoc_opt "kind" members with
      | Some (Obs.Json.Str "pretenure_policy") -> Ok ()
      | _ -> Error "policy field \"kind\" must be \"pretenure_policy\""
    in
    let* cutoff =
      match field "cutoff" with
      | Ok (Obs.Json.Num f) when f >= 0. && f <= 1. -> Ok f
      | Ok _ -> Error "policy field \"cutoff\" must be a number in [0, 1]"
      | Error msg -> Error msg
    in
    let* min_objects =
      match field "min_objects" with
      | Ok (Obs.Json.Num f) when Float.is_integer f && f >= 0. ->
        Ok (int_of_float f)
      | Ok _ ->
        Error "policy field \"min_objects\" must be a non-negative integer"
      | Error msg -> Error msg
    in
    let* sites_j = field "sites" in
    let* sites = int_list_of "sites" sites_j in
    let* no_scan_j = field "no_scan" in
    let* no_scan = int_list_of "no_scan" no_scan_j in
    let module S = Site_flow.Int_set in
    if not (S.subset (S.of_list no_scan) (S.of_list sites)) then
      Error "policy field \"no_scan\" must be a subset of \"sites\""
    else
      Ok
        { cutoff;
          min_objects;
          sites = List.sort_uniq compare sites;
          no_scan = List.sort_uniq compare no_scan }
  | _ -> Error "policy must be a JSON object"

let save t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc (Obs.Json.to_string (to_json t));
  output_char oc '\n'

let load path =
  match
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    really_input_string ic (in_channel_length ic)
  with
  | exception Sys_error msg -> Error msg
  | text ->
    (match Obs.Json.parse (String.trim text) with
     | exception Failure msg -> Error (Printf.sprintf "%s: %s" path msg)
     | j -> of_json j)
