module Histogram = struct
  (* bucket 0 = {0}; bucket i>=1 = [2^(i-1), 2^i) *)

  let bucket_index v =
    if v <= 0 then 0
    else begin
      let rec bits acc w = if w = 0 then acc else bits (acc + 1) (w lsr 1) in
      bits 0 v
    end

  let bucket_count = bucket_index max_int + 1

  let bucket_bounds i =
    if i < 0 || i >= bucket_count then
      invalid_arg "Histogram.bucket_bounds: no such bucket";
    if i = 0 then (0, 1)
    else begin
      let lo = 1 lsl (i - 1) in
      let hi = if i = bucket_count - 1 then max_int else 1 lsl i in
      (lo, hi)
    end

  type t = {
    cells : int array;
    mutable count : int;
    mutable total : int;
    mutable max_value : int;
  }

  let create () =
    { cells = Array.make bucket_count 0; count = 0; total = 0; max_value = 0 }

  let observe h v =
    let v = max 0 v in
    let i = bucket_index v in
    h.cells.(i) <- h.cells.(i) + 1;
    h.count <- h.count + 1;
    h.total <- h.total + v;
    if v > h.max_value then h.max_value <- v

  let count h = h.count
  let total h = h.total
  let max_value h = h.max_value

  let buckets h =
    let acc = ref [] in
    for i = bucket_count - 1 downto 0 do
      if h.cells.(i) > 0 then begin
        let lo, hi = bucket_bounds i in
        acc := (lo, hi, h.cells.(i)) :: !acc
      end
    done;
    !acc
end

type metric =
  | Counter of int ref
  | Gauge of int ref
  | Hist of Histogram.t

(* The registry is shared across domains when the real-mode parallel
   drain (or the async trace writer) is running: every public entry
   point takes [mu], so updates and reads are serialised.  [record]
   deliberately stays lock-free itself and relies on the leaf ops it
   calls — per-event atomicity is not promised, only per-metric. *)
type t = {
  tbl : (string, metric) Hashtbl.t;
  frac_us : (string, float ref) Hashtbl.t;
      (* per-phase sub-microsecond remainder not yet credited to its
         [phase_us.<name>] counter *)
  mu : Mutex.t;
}

let create () =
  { tbl = Hashtbl.create 64; frac_us = Hashtbl.create 8; mu = Mutex.create () }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Hist _ -> "histogram"

let find_or_add t name make =
  match Hashtbl.find_opt t.tbl name with
  | Some m -> m
  | None ->
    let m = make () in
    Hashtbl.replace t.tbl name m;
    m

let wrong_kind name m want =
  invalid_arg
    (Printf.sprintf "Metrics: %s is a %s, not a %s" name (kind_name m) want)

let incr t name by =
  locked t @@ fun () ->
  match find_or_add t name (fun () -> Counter (ref 0)) with
  | Counter r -> r := !r + by
  | m -> wrong_kind name m "counter"

let set_gauge t name v =
  locked t @@ fun () ->
  match find_or_add t name (fun () -> Gauge (ref 0)) with
  | Gauge r -> r := v
  | m -> wrong_kind name m "gauge"

let observe t name v =
  locked t @@ fun () ->
  match find_or_add t name (fun () -> Hist (Histogram.create ())) with
  | Hist h -> Histogram.observe h v
  | m -> wrong_kind name m "histogram"

(* Credit [dur_us] to the integer counter [name], carrying the fraction
   forward so the counter stays the floor of the exact sum: truncating
   each span would lose every sub-microsecond phase. *)
let add_us t name dur_us =
  let whole =
    locked t @@ fun () ->
    let r =
      match Hashtbl.find_opt t.frac_us name with
      | Some r -> r
      | None ->
        let r = ref 0. in
        Hashtbl.replace t.frac_us name r;
        r
    in
    r := !r +. dur_us;
    let whole = int_of_float !r in
    r := !r -. float_of_int whole;
    whole
  in
  incr t name whole

let get_counter t name =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.tbl name with Some (Counter r) -> !r | _ -> 0

let get_gauge t name =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.tbl name with Some (Gauge r) -> Some !r | _ -> None

let get_histogram t name =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.tbl name with Some (Hist h) -> Some h | _ -> None

let names_of t pred =
  locked t @@ fun () ->
  Hashtbl.fold (fun k m acc -> if pred m then k :: acc else acc) t.tbl []
  |> List.sort compare

let counter_names t =
  names_of t (function Counter _ -> true | _ -> false)

let gauge_names t = names_of t (function Gauge _ -> true | _ -> false)
let histogram_names t = names_of t (function Hist _ -> true | _ -> false)

(* --- the trace tap --- *)

let record t e =
  match e with
  | Event.Gc_begin { kind = _; nursery_w; tenured_w; los_w } ->
    set_gauge t "heap.nursery_w" nursery_w;
    set_gauge t "heap.tenured_w" tenured_w;
    set_gauge t "heap.los_w" los_w
  | Event.Gc_end { kind; pause_us; copied_w; promoted_w; live_w } ->
    let us = int_of_float pause_us in
    observe t ("pause_us." ^ kind) us;
    observe t "pause_us.all" us;
    incr t ("gc." ^ kind) 1;
    incr t "copied_w" copied_w;
    incr t "promoted_w" promoted_w;
    set_gauge t "live_w" live_w
  | Event.Phase { name; dur_us; counters } ->
    add_us t ("phase_us." ^ name) dur_us;
    List.iter
      (fun (k, v) -> incr t (Printf.sprintf "phase.%s.%s" name k) v)
      counters
  | Event.Stack_scan { decoded; reused; slots; roots; _ } ->
    incr t "scan.frames_decoded" decoded;
    incr t "scan.frames_reused" reused;
    incr t "scan.slots_decoded" slots;
    incr t "scan.roots" roots
  | Event.Site_survival { site; objects; first_objects; words } ->
    incr t (Printf.sprintf "site.%d.survived_w" site) words;
    incr t (Printf.sprintf "site.%d.survived_objects" site) objects;
    incr t (Printf.sprintf "site.%d.first_survivals" site) first_objects
  | Event.Site_alloc { site; objects; words } ->
    incr t (Printf.sprintf "site.%d.alloc_objects" site) objects;
    incr t (Printf.sprintf "site.%d.alloc_w" site) words
  | Event.Census _ ->
    (* Census records are live-heap snapshots, not deltas — summing them
       into counters would double-count; the offline analyzer
       ({!Profile}) is their consumer.  Only their volume is counted. *)
    incr t "census.records" 1
  | Event.Pretenure { site; words } ->
    incr t (Printf.sprintf "site.%d.pretenured_w" site) words
  | Event.Marker_place { installed; depth = _ } ->
    incr t "markers.installed" installed
  | Event.Unwind _ -> incr t "unwinds" 1
  | Event.Backend_stats { region; live_w; free_w; free_blocks; largest_hole; _ } ->
    set_gauge t (Printf.sprintf "backend.%s.live_w" region) live_w;
    set_gauge t (Printf.sprintf "backend.%s.free_w" region) free_w;
    set_gauge t (Printf.sprintf "backend.%s.free_blocks" region) free_blocks;
    set_gauge t (Printf.sprintf "backend.%s.largest_hole" region) largest_hole
  | Event.Slo_breach { rule; _ } ->
    incr t "slo.breach" 1;
    incr t ("slo.breach." ^ rule) 1
  | Event.Policy_update { knob; _ } ->
    incr t "policy.update" 1;
    incr t ("policy.update." ^ knob) 1

(* --- snapshot --- *)

let to_json t =
  let num n = Json.Num (float_of_int n) in
  let counters =
    List.map (fun n -> (n, num (get_counter t n))) (counter_names t)
  in
  let gauges =
    List.filter_map
      (fun n -> Option.map (fun v -> (n, num v)) (get_gauge t n))
      (gauge_names t)
  in
  let histograms =
    List.filter_map
      (fun n ->
        Option.map
          (fun h ->
            ( n,
              Json.Obj
                [ ("count", num (Histogram.count h));
                  ("total", num (Histogram.total h));
                  ("max", num (Histogram.max_value h));
                  ("buckets",
                   Json.List
                     (List.map
                        (fun (lo, hi, c) ->
                          Json.List [ num lo; num hi; num c ])
                        (Histogram.buckets h))) ] ))
          (get_histogram t n))
      (histogram_names t)
  in
  Json.to_string
    (Json.Obj
       [ ("counters", Json.Obj counters);
         ("gauges", Json.Obj gauges);
         ("histograms", Json.Obj histograms) ])
