type t = {
  cutoff : float;
  min_objects : int;
  sites : int list;
  scan_elision : bool;
}

(* The one builder behind both derivations: the only place sites are
   put in canonical order. *)
let make ~cutoff ~min_objects ~scan_elision ~sites =
  { cutoff; min_objects; sites = List.sort_uniq compare sites; scan_elision }

let of_profile p ~cutoff ~min_objects ~scan_elision =
  make ~cutoff ~min_objects ~scan_elision
    ~sites:(Obs.Profile.select_pretenure p ~cutoff ~min_objects)

let of_profile_data data ~cutoff ~min_objects ~scan_elision =
  make ~cutoff ~min_objects ~scan_elision
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
      ("scan_elision", Obs.Json.Bool t.scan_elision) ]

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
    let* scan_elision =
      match field "scan_elision" with
      | Ok (Obs.Json.Bool b) -> Ok b
      | Ok _ -> Error "policy field \"scan_elision\" must be true or false"
      | Error msg -> Error msg
    in
    Ok (make ~cutoff ~min_objects ~scan_elision ~sites)
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
