(* --compare A.json B.json: judge B against A on every workload x
   end-to-end metric with the bounds BENCHMARK.json fixes, and diff the
   deterministic work counters exactly.

   A metric is unresolved when either side's interquartile range over
   its reps, as a share of the median, exceeds the bound: the two runs
   then cannot tell a change of that size from noise.  Otherwise B is
   worse or better when it moved past the bound in that direction, and
   the same when it did not. *)

(* Units of values that repeat exactly from run to run of one commit. *)
let exact_units = [ "count"; "words"; "id" ]

let value (r : Record.result) name = Option.map fst (List.assoc_opt name r.metrics)

let spread r name =
  match (value r (name ^ ".q1"), value r (name ^ ".q3"), value r (name ^ ".median")) with
  | Some q1, Some q3, Some m when m <> 0. -> (q3 -. q1) /. Float.abs m
  | _ -> 0.

let fail_frac (r : Record.result) =
  if r.attempted = 0 then 1. else float_of_int r.failed /. float_of_int r.attempted

let pct x = Printf.sprintf "%.1f%%" (100. *. x)

let judge (spec : Record.spec) (a : Record.result) (b : Record.result) =
  let worse = ref 0 and mismatches = ref 0 in
  let line metric verdict detail =
    Printf.printf "%-14s %-16s %-10s %s\n" a.workload metric verdict detail
  in
  List.iter
    (fun (m : Record.spec_metric) ->
      match (value a m.m_name, value b m.m_name) with
      | Some va, Some vb ->
        let sa = spread a m.m_name and sb = spread b m.m_name in
        let change = if va = 0. then 0. else (vb -. va) /. Float.abs va in
        let worse_by = if m.lower_better then change else -.change in
        let verdict =
          if sa > m.bound || sb > m.bound then "unresolved"
          else if worse_by > m.bound then "worse"
          else if worse_by < -.m.bound then "better"
          else "same"
        in
        if verdict = "worse" then incr worse;
        line m.m_name verdict
          (Printf.sprintf "A=%s B=%s change %s, spread A %s B %s, bound %s"
             (Stats.num va) (Stats.num vb) (pct change) (pct sa) (pct sb) (pct m.bound))
      | _ ->
        incr worse;
        line m.m_name "missing" "")
    spec.end_to_end;
  let fa = fail_frac a and fb = fail_frac b in
  let verdict = if fb > fa then (incr worse; "worse") else "same" in
  line "fail_frac" verdict (Printf.sprintf "A=%s B=%s" (Stats.num fa) (Stats.num fb));
  let exact (r : Record.result) =
    List.filter (fun (_, (_, u)) -> List.mem u exact_units) r.metrics
  in
  let names =
    List.sort_uniq compare (List.map fst (exact a) @ List.map fst (exact b))
  in
  List.iter
    (fun name ->
      match (value a name, value b name) with
      | Some va, Some vb when va = vb -> ()
      | va, vb ->
        incr mismatches;
        let show = function Some v -> Stats.num v | None -> "absent" in
        line name "counter" (Printf.sprintf "A=%s B=%s" (show va) (show vb)))
    names;
  (!worse, !mismatches)

let run ~spec a_path b_path =
  let seed_a, a = Record.of_json (Record.read_file a_path) in
  let seed_b, b = Record.of_json (Record.read_file b_path) in
  if seed_a <> seed_b then
    Printf.printf "note: seeds differ (%d vs %d), so the serve counters will too\n" seed_a
      seed_b;
  let totals =
    List.map
      (fun (ra : Record.result) ->
        match List.find_opt (fun (rb : Record.result) -> rb.workload = ra.workload) b with
        | Some rb -> judge spec ra rb
        | None ->
          Printf.printf "%s: missing from %s\n" ra.workload b_path;
          (1, 0))
      a
  in
  let worse = List.fold_left (fun n (w, _) -> n + w) 0 totals in
  let mismatches = List.fold_left (fun n (_, m) -> n + m) 0 totals in
  Printf.printf "compare: %d worse, %d counter mismatches\n" worse mismatches;
  if worse > 0 || mismatches > 0 then 1 else 0
