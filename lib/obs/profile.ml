type site = {
  site : int;
  alloc_objects : int;
  alloc_words : int;
  survived_objects : int;
  first_objects : int;
  survived_words : int;
  pretenured_objects : int;
  pretenured_words : int;
}

type pause = {
  gc : int;
  kind : string;
  start_us : float;
  dur_us : float;
}

type census_row = {
  c_site : int;
  c_objects : int;
  c_words : int;
  c_ages : (string * int) list;
}

type census = {
  census_gc : int;
  rows : census_row list;
}

type scan_stats = {
  scans : int;
  frames_decoded : int;
  frames_reused : int;
  slots_decoded : int;
  scan_roots : int;
}

type backend_row = {
  b_region : string;
  b_backend : string;
  b_live_w : int;
  b_free_w : int;
  b_free_blocks : int;
  b_largest_hole : int;
}

type policy_row = {
  u_gc : int;
  u_knob : string;
  u_old : int;
  u_new : int;
  u_window : int;
  u_signals : (string * int) list;
}

type t = {
  events : int;
  collections : int;
  gc_kinds : (string * int) list;
  sites : site list;
  pauses : pause list;
  censuses : census list;
  scan : scan_stats;
  phase_us : (string * float) list;
  region_scanned_w : int;
  region_skipped_w : int;
  backends : backend_row list;
  copied_w : int;
  promoted_w : int;
  slo_breaches : (string * int) list;
  policy_updates : policy_row list;
  span_us : float;
}

(* mutable accumulator mirrored into the public [site] at the end *)
type acc = {
  mutable a_alloc_objects : int;
  mutable a_alloc_words : int;
  mutable a_survived_objects : int;
  mutable a_first_objects : int;
  mutable a_survived_words : int;
  mutable a_pretenured_objects : int;
  mutable a_pretenured_words : int;
}

let fresh_acc () =
  { a_alloc_objects = 0;
    a_alloc_words = 0;
    a_survived_objects = 0;
    a_first_objects = 0;
    a_survived_words = 0;
    a_pretenured_objects = 0;
    a_pretenured_words = 0 }

(* Records are schema-validated before folding, so the accessors may
   assume the declared shape; the fallbacks are unreachable. *)
let mem_int members k =
  match List.assoc_opt k members with
  | Some (Json.Num f) -> int_of_float f
  | _ -> 0

let mem_float members k =
  match List.assoc_opt k members with
  | Some (Json.Num f) -> f
  | _ -> 0.

let mem_str members k =
  match List.assoc_opt k members with
  | Some (Json.Str s) -> s
  | _ -> ""

let mem_counters members k =
  match List.assoc_opt k members with
  | Some (Json.Obj pairs) ->
    List.map
      (fun (name, v) ->
        (name, match v with Json.Num f -> int_of_float f | _ -> 0))
      pairs
  | _ -> []

let of_lines lines =
  let sites : (int, acc) Hashtbl.t = Hashtbl.create 32 in
  let acc_for id =
    match Hashtbl.find_opt sites id with
    | Some a -> a
    | None ->
      let a = fresh_acc () in
      Hashtbl.replace sites id a;
      a
  in
  let gc_kinds : (string, int) Hashtbl.t = Hashtbl.create 4 in
  let phase_us : (string, float) Hashtbl.t = Hashtbl.create 8 in
  let pauses = ref [] in
  let censuses = ref [] in          (* (gc, rows ref) newest first *)
  let events = ref 0 in
  let collections = ref 0 in
  let copied_w = ref 0 in
  let promoted_w = ref 0 in
  let span_us = ref 0. in
  let scans = ref 0 in
  let frames_decoded = ref 0 in
  let frames_reused = ref 0 in
  let slots_decoded = ref 0 in
  let scan_roots = ref 0 in
  let region_scanned_w = ref 0 in
  let region_skipped_w = ref 0 in
  (* last snapshot per region: backend_stats records are gauges *)
  let backends : (string, backend_row) Hashtbl.t = Hashtbl.create 4 in
  let slo_breaches : (string, int) Hashtbl.t = Hashtbl.create 4 in
  let policy_updates = ref [] in    (* newest first *)
  (* the pending collection: (gc ordinal, kind, begin timestamp) —
     collections never nest, so one slot suffices *)
  let open_gc = ref None in
  let fold members =
    incr events;
    span_us := Float.max !span_us (mem_float members "t_us");
    let gc = mem_int members "gc" in
    match mem_str members "ev" with
    | "gc_begin" ->
      incr collections;
      let kind = mem_str members "kind" in
      Hashtbl.replace gc_kinds kind
        (1 + Option.value ~default:0 (Hashtbl.find_opt gc_kinds kind));
      open_gc := Some (gc, kind, mem_float members "t_us")
    | "gc_end" ->
      let pause_us = mem_float members "pause_us" in
      copied_w := !copied_w + mem_int members "copied_w";
      promoted_w := !promoted_w + mem_int members "promoted_w";
      let start_us =
        match !open_gc with
        | Some (g, _, t0) when g = gc -> t0
        | _ ->
          (* truncated trace head: anchor the pause at its end *)
          Float.max 0. (mem_float members "t_us" -. pause_us)
      in
      open_gc := None;
      pauses :=
        { gc; kind = mem_str members "kind"; start_us; dur_us = pause_us }
        :: !pauses;
      span_us := Float.max !span_us (start_us +. pause_us)
    | "phase" ->
      let name = mem_str members "name" in
      Hashtbl.replace phase_us name
        (mem_float members "dur_us"
         +. Option.value ~default:0. (Hashtbl.find_opt phase_us name));
      if name = "region_scan" then begin
        let counters = mem_counters members "counters" in
        let get k = Option.value ~default:0 (List.assoc_opt k counters) in
        region_scanned_w := !region_scanned_w + get "scanned_w";
        region_skipped_w := !region_skipped_w + get "skipped_w"
      end
    | "stack_scan" ->
      incr scans;
      frames_decoded := !frames_decoded + mem_int members "decoded";
      frames_reused := !frames_reused + mem_int members "reused";
      slots_decoded := !slots_decoded + mem_int members "slots";
      scan_roots := !scan_roots + mem_int members "roots"
    | "site_survival" ->
      let a = acc_for (mem_int members "site") in
      a.a_survived_objects <- a.a_survived_objects + mem_int members "objects";
      a.a_first_objects <- a.a_first_objects + mem_int members "first_objects";
      a.a_survived_words <- a.a_survived_words + mem_int members "words"
    | "site_alloc" ->
      let a = acc_for (mem_int members "site") in
      a.a_alloc_objects <- a.a_alloc_objects + mem_int members "objects";
      a.a_alloc_words <- a.a_alloc_words + mem_int members "words"
    | "census" ->
      let row =
        { c_site = mem_int members "site";
          c_objects = mem_int members "objects";
          c_words = mem_int members "words";
          c_ages = mem_counters members "ages" }
      in
      (match !censuses with
       | (g, rows) :: _ when g = gc -> rows := row :: !rows
       | _ -> censuses := (gc, ref [ row ]) :: !censuses)
    | "pretenure" ->
      let a = acc_for (mem_int members "site") in
      a.a_pretenured_objects <- a.a_pretenured_objects + 1;
      a.a_pretenured_words <- a.a_pretenured_words + mem_int members "words"
    | "backend_stats" ->
      let region = mem_str members "region" in
      Hashtbl.replace backends region
        { b_region = region;
          b_backend = mem_str members "backend";
          b_live_w = mem_int members "live_w";
          b_free_w = mem_int members "free_w";
          b_free_blocks = mem_int members "free_blocks";
          b_largest_hole = mem_int members "largest_hole" }
    | "slo_breach" ->
      let rule = mem_str members "rule" in
      Hashtbl.replace slo_breaches rule
        (1 + Option.value ~default:0 (Hashtbl.find_opt slo_breaches rule))
    | "policy_update" ->
      policy_updates :=
        { u_gc = gc;
          u_knob = mem_str members "knob";
          u_old = mem_int members "old";
          u_new = mem_int members "new";
          u_window = mem_int members "window";
          u_signals = mem_counters members "signals" }
        :: !policy_updates
    | "marker_place" | "unwind" -> ()
    | _ -> ()
  in
  let rec go n = function
    | [] -> Ok ()
    | "" :: rest -> go (n + 1) rest
    | line :: rest ->
      (match Json.parse line with
       | exception Failure msg -> Error (Printf.sprintf "line %d: %s" n msg)
       | j ->
         (match Schema.validate j with
          | Error msg -> Error (Printf.sprintf "line %d: %s" n msg)
          | Ok () ->
            (match j with
             | Json.Obj members -> fold members
             | _ -> ());
            go (n + 1) rest))
  in
  match go 1 lines with
  | Error _ as e -> e
  | Ok () ->
    let site_list =
      Hashtbl.fold
        (fun id a rest ->
          { site = id;
            alloc_objects = a.a_alloc_objects;
            alloc_words = a.a_alloc_words;
            survived_objects = a.a_survived_objects;
            first_objects = a.a_first_objects;
            survived_words = a.a_survived_words;
            pretenured_objects = a.a_pretenured_objects;
            pretenured_words = a.a_pretenured_words }
          :: rest)
        sites []
      |> List.sort (fun a b -> compare a.site b.site)
    in
    Ok
      { events = !events;
        collections = !collections;
        gc_kinds =
          List.sort compare
            (Hashtbl.fold (fun k v rest -> (k, v) :: rest) gc_kinds []);
        sites = site_list;
        pauses = List.rev !pauses;
        censuses =
          List.rev_map
            (fun (g, rows) -> { census_gc = g; rows = List.rev !rows })
            !censuses;
        scan =
          { scans = !scans;
            frames_decoded = !frames_decoded;
            frames_reused = !frames_reused;
            slots_decoded = !slots_decoded;
            scan_roots = !scan_roots };
        phase_us =
          List.sort compare
            (Hashtbl.fold (fun k v rest -> (k, v) :: rest) phase_us []);
        region_scanned_w = !region_scanned_w;
        region_skipped_w = !region_skipped_w;
        backends =
          List.sort compare
            (Hashtbl.fold (fun _ row rest -> row :: rest) backends []);
        copied_w = !copied_w;
        promoted_w = !promoted_w;
        slo_breaches =
          List.sort compare
            (Hashtbl.fold (fun k v rest -> (k, v) :: rest) slo_breaches []);
        policy_updates = List.rev !policy_updates;
        span_us = !span_us }

let of_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec read acc =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | line -> read (line :: acc)
  in
  of_lines (read [])

(* Cross-run union for `emit-policy --merge`: per-site counters sum, so
   [old_fraction] of the merged profile is the allocation-weighted
   combination of the runs (summed numerators over summed denominators).
   Count-like whole-run stats sum too; gauges (backend snapshots) keep
   the later run's value; pauses and decisions concatenate in argument
   order. *)
let merge a b =
  let merge_assoc zero add xs ys =
    let tbl = Hashtbl.create 16 in
    List.iter (fun (k, v) -> Hashtbl.replace tbl k v) xs;
    List.iter
      (fun (k, v) ->
        Hashtbl.replace tbl k
          (add (Option.value ~default:zero (Hashtbl.find_opt tbl k)) v))
      ys;
    List.sort compare (Hashtbl.fold (fun k v rest -> (k, v) :: rest) tbl [])
  in
  let merge_sites xs ys =
    let tbl = Hashtbl.create 32 in
    List.iter (fun s -> Hashtbl.replace tbl s.site s) xs;
    List.iter
      (fun s ->
        match Hashtbl.find_opt tbl s.site with
        | None -> Hashtbl.replace tbl s.site s
        | Some p ->
          Hashtbl.replace tbl s.site
            { site = s.site;
              alloc_objects = p.alloc_objects + s.alloc_objects;
              alloc_words = p.alloc_words + s.alloc_words;
              survived_objects = p.survived_objects + s.survived_objects;
              first_objects = p.first_objects + s.first_objects;
              survived_words = p.survived_words + s.survived_words;
              pretenured_objects = p.pretenured_objects + s.pretenured_objects;
              pretenured_words = p.pretenured_words + s.pretenured_words })
      ys;
    Hashtbl.fold (fun _ s rest -> s :: rest) tbl []
    |> List.sort (fun x y -> compare x.site y.site)
  in
  let merge_backends xs ys =
    let tbl = Hashtbl.create 4 in
    List.iter (fun r -> Hashtbl.replace tbl r.b_region r) xs;
    List.iter (fun r -> Hashtbl.replace tbl r.b_region r) ys;
    List.sort compare (Hashtbl.fold (fun _ r rest -> r :: rest) tbl [])
  in
  { events = a.events + b.events;
    collections = a.collections + b.collections;
    gc_kinds = merge_assoc 0 ( + ) a.gc_kinds b.gc_kinds;
    sites = merge_sites a.sites b.sites;
    pauses = a.pauses @ b.pauses;
    censuses = a.censuses @ b.censuses;
    scan =
      { scans = a.scan.scans + b.scan.scans;
        frames_decoded = a.scan.frames_decoded + b.scan.frames_decoded;
        frames_reused = a.scan.frames_reused + b.scan.frames_reused;
        slots_decoded = a.scan.slots_decoded + b.scan.slots_decoded;
        scan_roots = a.scan.scan_roots + b.scan.scan_roots };
    phase_us = merge_assoc 0. ( +. ) a.phase_us b.phase_us;
    region_scanned_w = a.region_scanned_w + b.region_scanned_w;
    region_skipped_w = a.region_skipped_w + b.region_skipped_w;
    backends = merge_backends a.backends b.backends;
    copied_w = a.copied_w + b.copied_w;
    promoted_w = a.promoted_w + b.promoted_w;
    slo_breaches = merge_assoc 0 ( + ) a.slo_breaches b.slo_breaches;
    policy_updates = a.policy_updates @ b.policy_updates;
    span_us = Float.max a.span_us b.span_us }

let site_stats t ~site = List.find_opt (fun s -> s.site = site) t.sites

let old_fraction s =
  if s.alloc_objects = 0 then 0.
  else
    (* pretenured objects were placed old by fiat and never take a first
       copy; counting them as survivors keeps the fraction stable when a
       policy-driven run is itself profiled *)
    float_of_int (s.first_objects + s.pretenured_objects)
    /. float_of_int s.alloc_objects

let select_pretenure t ~cutoff ~min_objects =
  List.filter_map
    (fun s ->
      if old_fraction s >= cutoff && s.alloc_objects >= min_objects then
        Some s.site
      else None)
    t.sites

type percentiles = {
  count : int;
  p50 : float;
  p90 : float;
  p99 : float;
  p999 : float;
  max_us : float;
  total_us : float;
}

(* toplevel, not a closure built per level of [select]: how many levels
   run depends on the values, and the host words a selection allocated
   did too (serve's guarded host-word rows moved between runs) *)
let swap (a : float array) i j =
  let x = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- x

(* [select a lo hi k] permutes [a.(lo..hi)] so that [a.(k)] holds the
   value of rank [k] in it, with nothing greater to its left and nothing
   smaller to its right: Hoare quickselect with a median-of-three pivot,
   ordered by [Float.compare] (the order [compare] gives floats, so a
   NaN ranks lowest, as under a sort). *)
let rec select a lo hi k =
  if lo < hi then begin
    let mid = lo + ((hi - lo) / 2) in
    if Float.compare a.(mid) a.(lo) < 0 then swap a mid lo;
    if Float.compare a.(hi) a.(lo) < 0 then swap a hi lo;
    if Float.compare a.(hi) a.(mid) < 0 then swap a hi mid;
    let pivot = a.(mid) in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while Float.compare a.(!i) pivot < 0 do incr i done;
      while Float.compare a.(!j) pivot > 0 do decr j done;
      if !i <= !j then begin
        swap a !i !j;
        incr i;
        decr j
      end
    done;
    if k <= !j then select a lo !j k else if k >= !i then select a !i hi k
  end

(* The four nearest-rank selections on the [n >= 1] samples of
   [a.(lo .. lo + n - 1)]: the ceil(q*n)-th smallest for each q,
   selected in ascending rank order, each within the suffix the previous
   selection left at or above it.  The one selection routine behind
   every summary below; [max_us] and [total_us] come from the caller's
   input-order pass. *)
let select_ranks a ~lo ~n ~max_us ~total_us =
  let hi = lo + n - 1 in
  let from = ref lo in
  let at q =
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    let k = lo + max 0 (min (n - 1) (rank - 1)) in
    select a !from hi k;
    from := k;
    a.(k)
  in
  let p50 = at 0.50 in
  let p90 = at 0.90 in
  let p99 = at 0.99 in
  let p999 = at 0.999 in
  { count = n; p50; p90; p99; p999; max_us; total_us }

(* Max and total of [a] in input order (a NaN ranks lowest, as under
   [Float.compare]); the total starts from [0.]. *)
let max_total a =
  let max_us = ref a.(0) and total = ref 0. in
  for i = 0 to Array.length a - 1 do
    let d = a.(i) in
    if Float.compare d !max_us > 0 then max_us := d;
    total := !total +. d
  done;
  (!max_us, !total)

(* A copy, then the in-place selection. *)
let percentiles_of durs =
  let n = Array.length durs in
  if n = 0 then None
  else begin
    let a = Array.copy durs in
    let max_us, total_us = max_total a in
    Some (select_ranks a ~lo:0 ~n ~max_us ~total_us)
  end

let tag tags i = Bytes.get_uint16_ne tags (2 * i)

let swap_tagged samples tags i j =
  swap samples i j;
  let t = tag tags i in
  Bytes.set_uint16_ne tags (2 * i) (tag tags j);
  Bytes.set_uint16_ne tags (2 * j) t

(* Three steps, none of which copies a sample: (1) each group's count,
   max and total in input order, the same arithmetic as [max_total], so
   totals are bit-identical; (2) an in-place partition by tag (counting
   offsets, then cycle-leader swaps: every swap puts one sample in its
   group's next free place for good); (3) the selections on each
   group's slice.  The partition reorders a group's samples, but a
   rank's value does not depend on their order. *)
let group_percentiles samples tags ~groups =
  let n = Array.length samples in
  if groups > 0x1_0000 then
    invalid_arg "Profile.group_percentiles: more groups than 16-bit tags";
  if Bytes.length tags < 2 * n then
    invalid_arg "Profile.group_percentiles: fewer tags than samples";
  let count = Array.make groups 0 in
  let max_us = Array.make groups 0. and total = Array.make groups 0. in
  for i = 0 to n - 1 do
    let g = tag tags i in
    if g >= groups then
      invalid_arg "Profile.group_percentiles: tag not below groups";
    let d = samples.(i) in
    if count.(g) = 0 || Float.compare d max_us.(g) > 0 then max_us.(g) <- d;
    total.(g) <- total.(g) +. d;
    count.(g) <- count.(g) + 1
  done;
  let next = Array.make groups 0 in
  for g = 1 to groups - 1 do
    next.(g) <- next.(g - 1) + count.(g - 1)
  done;
  let start = Array.copy next in
  for g = 0 to groups - 1 do
    let stop = start.(g) + count.(g) in
    while next.(g) < stop do
      let i = next.(g) in
      let t = tag tags i in
      if t = g then next.(g) <- i + 1
      else begin
        swap_tagged samples tags i next.(t);
        next.(t) <- next.(t) + 1
      end
    done
  done;
  Array.init groups (fun g ->
    if count.(g) = 0 then None
    else
      Some
        (select_ranks samples ~lo:start.(g) ~n:count.(g) ~max_us:max_us.(g)
           ~total_us:total.(g)))

(* ["all"] summarises every pause, and also stands for a kind that is
   itself named "all".  Its selection runs on the grouped array: the
   same values, no copy. *)
let kind_percentiles ~kinds durs =
  let n = Array.length durs in
  if n = 0 then []
  else begin
    let max_us, total_us = max_total durs in
    let names = List.sort_uniq compare (Array.to_list kinds) in
    let index = Hashtbl.create 8 in
    List.iteri (fun g k -> Hashtbl.replace index k g) names;
    let tags = Bytes.create (2 * n) in
    Array.iteri
      (fun i k -> Bytes.set_uint16_ne tags (2 * i) (Hashtbl.find index k))
      kinds;
    let by_kind =
      group_percentiles durs tags ~groups:(List.length names)
    in
    let all = select_ranks durs ~lo:0 ~n ~max_us ~total_us in
    List.map
      (fun k ->
        ( k,
          if k = "all" then all
          else Option.get by_kind.(Hashtbl.find index k) ))
      (List.sort compare ("all" :: names))
  end

let pause_percentiles t =
  kind_percentiles
    ~kinds:(Array.of_list (List.map (fun p -> p.kind) t.pauses))
    (Array.of_list (List.map (fun p -> p.dur_us) t.pauses))

(* --- MMU --- *)

(* Pause time overlapping the window [lo, lo + w); pauses are
   (start, dur) pairs. *)
let busy_in pauses ~lo ~w =
  let hi = lo +. w in
  List.fold_left
    (fun acc (s, d) ->
      let e = s +. d in
      acc +. Float.max 0. (Float.min e hi -. Float.max s lo))
    0. pauses

(* The shared kernel: the online monitor ({!Slo}) calls this on the
   pauses it collected live, so its end-of-run MMU is bit-identical to
   the offline analysis of the same trace. *)
let mmu_of ~pauses ~span_us ~window_us =
  if window_us <= 0. || span_us <= 0. then 1.
  else if pauses = [] then 1.
  else if window_us >= span_us then begin
    (* degenerate: the only "window" is the run itself *)
    let total = List.fold_left (fun acc (_, d) -> acc +. d) 0. pauses in
    Float.max 0. (1. -. (total /. span_us))
  end
  else begin
    (* the minimum is reached with a window edge on a pause boundary:
       sliding a window whose edges touch no boundary changes busy time
       linearly, so an endpoint of the slide is at least as bad *)
    let candidates =
      List.concat_map
        (fun (s, d) ->
          [ s; s +. d -. window_us; s +. d; s -. window_us ])
        pauses
    in
    let worst =
      List.fold_left
        (fun acc lo ->
          let lo = Float.max 0. (Float.min lo (span_us -. window_us)) in
          Float.max acc (busy_in pauses ~lo ~w:window_us))
        0. candidates
    in
    Float.max 0. (1. -. (worst /. window_us))
  end

let mmu t ~window_us =
  mmu_of
    ~pauses:(List.map (fun p -> (p.start_us, p.dur_us)) t.pauses)
    ~span_us:t.span_us ~window_us

let mmu_curve t ~windows_us =
  List.map (fun w -> (w, mmu t ~window_us:w)) windows_us
