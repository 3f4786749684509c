(* Result records, as written to --json files and read back by --compare
   and the smoke check, and the metric lists of BENCHMARK.json. *)

type result = {
  workload : string;
  attempted : int;
  failed : int;
  correct : bool;
  metrics : (string * (float * string)) list;  (** name -> value, unit *)
}

let metric_json (name, (v, u)) =
  Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (Obs.Json.escape name) (Stats.num v)
    (Obs.Json.escape u)

(* The shape of the benchmark's last output line. *)
let result_json r =
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}"
    r.correct r.attempted r.failed
    (String.concat "," (List.map metric_json r.metrics))

let to_json ~seed ~seconds results =
  Printf.sprintf "{\"seed\":%d,\"seconds\":%s,\"workloads\":{%s}}\n" seed
    (Stats.num seconds)
    (String.concat ","
       (List.map (fun r -> Obs.Json.escape r.workload ^ ":" ^ result_json r) results))

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let field name j =
  match Obs.Json.member name j with
  | Some v -> v
  | None -> failwith (Printf.sprintf "missing field %S" name)

let num = function Obs.Json.Num f -> f | _ -> failwith "expected a number"
let str = function Obs.Json.Str s -> s | _ -> failwith "expected a string"
let obj = function Obs.Json.Obj l -> l | _ -> failwith "expected an object"
let list = function Obs.Json.List l -> l | _ -> failwith "expected a list"

let result_of_json workload j =
  { workload;
    attempted = int_of_float (num (field "attempted" j));
    failed = int_of_float (num (field "failed" j));
    correct = field "correct" j = Obs.Json.Bool true;
    metrics =
      List.map
        (fun (name, m) -> (name, (num (field "value" m), str (field "unit" m))))
        (obj (field "metrics" j)) }

(* [of_json text] is the seed and the per-workload results of a record.
   @raise Failure on malformed input. *)
let of_json text =
  let j = Obs.Json.parse text in
  ( int_of_float (num (field "seed" j)),
    List.map (fun (w, r) -> result_of_json w r) (obj (field "workloads" j)) )

type spec_metric = { m_name : string; m_unit : string; lower_better : bool; bound : float }

type spec = {
  workloads : string list;
  end_to_end : spec_metric list;
  per_layer : spec_metric list;
}

let load_spec path =
  let j = Obs.Json.parse (read_file path) in
  let metrics key =
    List.map
      (fun m ->
        { m_name = str (field "name" m);
          m_unit = str (field "unit" m);
          lower_better = str (field "better" m) = "lower";
          bound = (match Obs.Json.member "bound" m with Some b -> num b | None -> 0.) })
      (list (field key j))
  in
  { workloads = List.map (fun w -> str (field "name" w)) (list (field "workloads" j));
    end_to_end = metrics "end_to_end";
    per_layer = metrics "per_layer" }
