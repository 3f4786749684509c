(* The end-to-end benchmark: four workloads through the paper's pipeline
   (profile -> pretenure policy -> measured run), end-to-end metrics from
   untraced reps, a per-layer split from ring-traced reps.

   With --workload it measures that one workload in this process,
   prints every metric as "workload metric value unit", and ends with
   one JSON line: the end-to-end metrics under --trace 0, the per-layer
   ones under --trace 1.  Without it, it runs every workload in a fresh
   child process of this executable, one after another.  Exit 1 on any
   failed check, 2 on a usage error; README.md has the protocol and the
   metric map. *)

let usage =
  "main.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--json PATH]\n\
  \       main.exe --smoke [--spec BENCHMARK.json]\n\
  \       main.exe --compare A.json B.json [--spec BENCHMARK.json]"

(* --- one workload, in this process --- *)

let run_one ~plan ~seed ~trace ~json (w : Workload.t) =
  let o = Workload.run ~plan ~seed w in
  List.iter
    (fun (m : Workload.metric) ->
      Printf.printf "%s %s %s %s\n" w.name m.name (Stats.num m.value) m.unit_)
    o.metrics;
  let result keep =
    { Record.workload = w.name;
      attempted = o.attempted;
      failed = o.failed;
      correct = o.failures = [] && o.metrics <> [];
      metrics =
        List.filter_map
          (fun (m : Workload.metric) ->
            if keep m.tier then Some (m.name, (m.value, m.unit_)) else None)
          o.metrics }
  in
  Option.iter
    (fun path ->
      Record.write_file path
        (Record.to_json ~seed ~seconds:plan.Workload.seconds [ result (fun _ -> true) ]))
    json;
  let shown = if trace then Workload.Layer else Workload.E2e in
  let r = result (( = ) shown) in
  print_endline (Record.result_json r);
  if r.correct then 0 else 1

(* --- every workload, each in a child process --- *)

let run_child ~seed ~seconds ~smoke (w : Workload.t) =
  let args =
    [ Sys.executable_name; "--workload"; w.name; "--seed"; string_of_int seed;
      "--seconds"; Stats.num seconds; "--trace"; "1" ]
    @ if smoke then [ "--smoke" ] else []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let lines = In_channel.input_lines ic in
  let status = Unix.close_process_in ic in
  (* the child's last line is its per-layer JSON; the text lines before
     it carry every metric it measured *)
  let body, last =
    match List.rev lines with
    | last :: rest -> (List.rev rest, Obs.Json.parse_opt last)
    | [] -> ([], None)
  in
  if not smoke then List.iter print_endline body;
  let metrics =
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' line with
        | [ wn; name; v; u ] when wn = w.name ->
          Option.map (fun v -> (name, (v, u))) (float_of_string_opt v)
        | _ -> None)
      body
  in
  match (status, last) with
  | Unix.WEXITED code, Some j ->
    let r = Record.result_of_json w.name j in
    ({ r with correct = r.correct && code = 0; metrics }, List.map fst r.metrics)
  | _ ->
    Printf.eprintf "%s: child process ended without a result\n%!" w.name;
    ({ Record.workload = w.name; attempted = 1; failed = 1; correct = false; metrics }, [])

let valid_name s =
  s <> ""
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

(* The smoke checks: the record re-parses, every metric BENCHMARK.json
   lists is emitted in its unit for every workload, the per-layer JSON
   line holds exactly the listed per-layer metrics, every name is
   well-formed, and no rep failed. *)
let smoke_problems ~(spec : Record.spec) ~seed children =
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let results = List.map fst children in
  let listed = List.sort compare (List.map (fun m -> m.Record.m_name) spec.per_layer) in
  List.iter
    (fun ((r : Record.result), names) ->
      if List.sort compare names <> listed then
        bad "%s: the per-layer JSON line does not hold exactly BENCHMARK.json's per_layer metrics"
          r.workload)
    children;
  let reread =
    match Record.of_json (Record.to_json ~seed ~seconds:0. results) with
    | _, r -> r
    | exception Failure msg -> bad "record does not re-parse: %s" msg; []
  in
  let ours = List.map (fun (w : Workload.t) -> w.name) Workload.all in
  if List.map (fun (r : Record.result) -> r.workload) reread <> ours then
    bad "record re-parsed with different workloads";
  if List.sort compare spec.workloads <> List.sort compare ours then
    bad "BENCHMARK.json names workloads [%s], the benchmark runs [%s]"
      (String.concat " " spec.workloads) (String.concat " " ours);
  List.iter (fun name -> if not (valid_name name) then bad "bad workload name %S" name) ours;
  List.iter
    (fun (r : Record.result) ->
      if r.failed > 0 || (not r.correct) || r.attempted < 1 then
        bad "%s: %d of %d reps failed" r.workload r.failed r.attempted;
      List.iter
        (fun (name, _) ->
          if not (valid_name name) then bad "%s: bad metric name %S" r.workload name)
        r.metrics;
      List.iter
        (fun (m : Record.spec_metric) ->
          match List.assoc_opt m.m_name r.metrics with
          | None -> bad "%s: %s not emitted" r.workload m.m_name
          | Some (_, u) when u <> m.m_unit ->
            bad "%s: %s emitted in %s, BENCHMARK.json says %s" r.workload m.m_name u
              m.m_unit
          | Some _ -> ())
        (spec.end_to_end @ spec.per_layer))
    reread;
  List.rev !problems

let run_all ~seed ~seconds ~smoke ~spec ~json =
  let children = List.map (run_child ~seed ~seconds ~smoke) Workload.all in
  let results = List.map fst children in
  Option.iter (fun path -> Record.write_file path (Record.to_json ~seed ~seconds results)) json;
  let problems =
    if smoke then smoke_problems ~spec:(Record.load_spec spec) ~seed children
    else
      List.filter_map
        (fun (r : Record.result) ->
          if r.correct then None else Some (r.workload ^ ": failed"))
        results
  in
  List.iter (fun p -> prerr_endline ("bench-e2e: " ^ p)) problems;
  if smoke && problems = [] then
    List.iter
      (fun (r : Record.result) ->
        Printf.printf "bench-e2e smoke: %s ok, %d reps, %d metrics\n" r.workload r.attempted
          (List.length r.metrics))
      results;
  if problems = [] then 0 else 1

(* --- main --- *)

let () =
  let workload = ref None and seed = ref 42 and seconds = ref 15. and trace = ref 1 in
  let json = ref None and smoke = ref false and spec = ref "BENCHMARK.json" in
  let compare = ref false and files = ref [] in
  let options =
    [ ("--workload", Arg.String (fun s -> workload := Some s), "NAME run one workload");
      ("--seed", Arg.Set_int seed, "N seed of the serve request stream (default 42)");
      ("--seconds", Arg.Set_float seconds, "S length of the timed window (default 15)");
      ("--trace", Arg.Set_int trace, "0|1 print end-to-end (0) or per-layer (1) JSON");
      ("--json", Arg.String (fun s -> json := Some s), "PATH also write every metric as JSON");
      ("--smoke", Arg.Set smoke, " one rep of each kind per workload, then check the output");
      ("--spec", Arg.Set_string spec, "PATH BENCHMARK.json to check against");
      ("--compare", Arg.Set compare, " compare two --json files, A.json B.json") ]
  in
  (try Arg.parse_argv Sys.argv options (fun f -> files := f :: !files) usage with
   | Arg.Help msg -> print_string msg; exit 0
   | Arg.Bad msg -> prerr_string msg; exit 2);
  let usage_error msg =
    Printf.eprintf "bench-e2e: %s\nusage: %s\n" msg usage;
    exit 2
  in
  if !trace <> 0 && !trace <> 1 then usage_error "--trace takes 0 or 1";
  if !seconds < 0. then usage_error "--seconds must be non-negative";
  let run () =
    if !compare then
      match List.rev !files with
      | [ a; b ] -> Compare.run ~spec:(Record.load_spec !spec) a b
      | _ -> usage_error "--compare takes exactly two files"
    else if !files <> [] then usage_error ("unexpected argument " ^ List.hd !files)
    else
      match !workload with
      | None -> run_all ~seed:!seed ~seconds:!seconds ~smoke:!smoke ~spec:!spec ~json:!json
      | Some name ->
        (match Workload.find name with
         | None -> usage_error ("unknown workload " ^ name)
         | Some w ->
           let plan =
             if !smoke then Workload.smoke_plan
             else Workload.plan ~seconds:!seconds ~trace:(!trace = 1)
           in
           run_one ~plan ~seed:!seed ~trace:(!trace = 1) ~json:!json w)
  in
  (* an unreadable or malformed --spec or --compare file *)
  exit (try run () with Sys_error msg | Failure msg -> prerr_endline ("bench-e2e: " ^ msg); 1)
