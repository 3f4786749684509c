type field_type =
  | Int
  | Us
  | Str
  | Counters

let envelope =
  [ ("v", Int); ("seq", Int); ("t_us", Us); ("gc", Int); ("dom", Int);
    ("ev", Str) ]

(* Keep in lockstep with Event.write and docs/TRACING.md; the golden
   test cross-checks emission against this table. *)
let tables =
  [ ("gc_begin",
     [ ("kind", Str); ("nursery_w", Int); ("tenured_w", Int); ("los_w", Int) ]);
    ("gc_end",
     [ ("kind", Str); ("pause_us", Us); ("copied_w", Int);
       ("promoted_w", Int); ("live_w", Int) ]);
    ("phase", [ ("name", Str); ("dur_us", Us); ("counters", Counters) ]);
    ("stack_scan",
     [ ("mode", Str); ("valid_prefix", Int); ("depth", Int); ("decoded", Int);
       ("reused", Int); ("slots", Int); ("roots", Int) ]);
    ("site_survival",
     [ ("site", Int); ("objects", Int); ("first_objects", Int);
       ("words", Int) ]);
    ("site_alloc", [ ("site", Int); ("objects", Int); ("words", Int) ]);
    ("census",
     [ ("site", Int); ("objects", Int); ("words", Int); ("ages", Counters) ]);
    ("pretenure", [ ("site", Int); ("words", Int) ]);
    ("marker_place", [ ("installed", Int); ("depth", Int) ]);
    ("unwind", [ ("target_depth", Int) ]);
    ("backend_stats",
     [ ("region", Str); ("backend", Str); ("live_w", Int); ("free_w", Int);
       ("free_blocks", Int); ("largest_hole", Int) ]);
    ("slo_breach",
     [ ("rule", Str); ("observed_us", Us); ("limit_us", Us);
       ("window_us", Us) ]);
    ("policy_update",
     [ ("knob", Str); ("old", Int); ("new", Int); ("window", Int);
       ("signals", Counters) ]) ]

let kinds = List.map fst tables

let fields kind =
  match List.assoc_opt kind tables with
  | Some f -> f
  | None -> raise Not_found

let type_ok ty v =
  match ty, v with
  | Int, Json.Num f -> Float.is_integer f && f >= 0.
  | Us, Json.Num f -> f >= 0.
  | Str, Json.Str _ -> true
  | Counters, Json.Obj members ->
    List.for_all
      (fun (_, v) ->
        match v with Json.Num f -> Float.is_integer f && f >= 0. | _ -> false)
      members
  | (Int | Us | Str | Counters), _ -> false

let type_name = function
  | Int -> "int"
  | Us -> "microseconds"
  | Str -> "string"
  | Counters -> "counters object"

let validate j =
  match j with
  | Json.Obj members ->
    let check_spec spec =
      List.fold_left
        (fun acc (name, ty) ->
          match acc with
          | Error _ -> acc
          | Ok () ->
            (match List.assoc_opt name members with
             | None -> Error (Printf.sprintf "missing field %S" name)
             | Some v ->
               if type_ok ty v then Ok ()
               else
                 Error
                   (Printf.sprintf "field %S is not a %s" name (type_name ty))))
        (Ok ()) spec
    in
    let version_ok =
      match List.assoc_opt "v" members with
      | Some (Json.Num f)
        when Float.is_integer f && int_of_float f <> Event.version ->
        Error
          (Printf.sprintf
             "trace version %d not supported (this build reads version %d)"
             (int_of_float f) Event.version)
      | _ -> Ok ()
    in
    (match check_spec envelope with
     | Error _ as e -> e
     | Ok () ->
       (match version_ok with
        | Error _ as e -> e
        | Ok () ->
       (match List.assoc_opt "ev" members with
        | Some (Json.Str kind) ->
          (match List.assoc_opt kind tables with
           | None -> Error (Printf.sprintf "unknown event kind %S" kind)
           | Some spec ->
             (match check_spec spec with
              | Error _ as e -> e
              | Ok () ->
                let known =
                  List.map fst envelope @ List.map fst spec
                in
                (match
                   List.find_opt
                     (fun (k, _) -> not (List.mem k known))
                     members
                 with
                 | Some (k, _) ->
                   Error
                     (Printf.sprintf "unknown field %S on %S" k kind)
                 | None -> Ok ())))
        | Some _ | None -> Error "missing \"ev\" discriminator")))
  | _ -> Error "record is not a JSON object"

let validate_line s =
  match Json.parse s with
  | j -> validate j
  | exception Failure msg -> Error msg

let validate_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go n line_no =
    match input_line ic with
    | exception End_of_file -> Ok n
    | "" -> go n (line_no + 1)
    | line ->
      (match validate_line line with
       | Ok () -> go (n + 1) (line_no + 1)
       | Error msg -> Error (Printf.sprintf "line %d: %s" line_no msg))
  in
  go 0 1
