let bar ~width frac =
  let n = int_of_float (frac *. float_of_int width +. 0.5) in
  String.make (max 0 (min width n)) '#'

let us_range lo hi =
  if hi = max_int then Printf.sprintf ">= %d us" lo
  else if lo = 0 && hi = 1 then "0 us"
  else Printf.sprintf "%d - %d us" lo (hi - 1)

let pause_histograms m =
  let names =
    List.filter
      (fun n -> String.length n > 9 && String.sub n 0 9 = "pause_us.")
      (Metrics.histogram_names m)
  in
  let render_one name =
    match Metrics.get_histogram m name with
    | None -> ""
    | Some h when Metrics.Histogram.count h = 0 -> ""
    | Some h ->
      let kind = String.sub name 9 (String.length name - 9) in
      let total = Metrics.Histogram.count h in
      let grid =
        Support.Textgrid.create
          ~columns:Support.Textgrid.[ Left; Right; Right; Left ]
      in
      Support.Textgrid.add_row grid
        [ "pause (" ^ kind ^ ")"; "count"; "share"; "" ];
      Support.Textgrid.add_rule grid;
      List.iter
        (fun (lo, hi, c) ->
          let frac = float_of_int c /. float_of_int total in
          Support.Textgrid.add_row grid
            [ us_range lo hi;
              string_of_int c;
              Printf.sprintf "%.1f%%" (100. *. frac);
              bar ~width:30 frac ])
        (Metrics.Histogram.buckets h);
      Support.Textgrid.add_rule grid;
      Support.Textgrid.add_row grid
        [ "pauses";
          string_of_int total;
          "";
          Printf.sprintf "sum %d us, max %d us"
            (Metrics.Histogram.total h)
            (Metrics.Histogram.max_value h) ];
      Support.Textgrid.render grid
  in
  String.concat "\n" (List.filter (fun s -> s <> "") (List.map render_one names))

let phase_breakdown m =
  let phases =
    List.filter_map
      (fun n ->
        if String.length n > 9 && String.sub n 0 9 = "phase_us." then
          Some (String.sub n 9 (String.length n - 9))
        else None)
      (Metrics.counter_names m)
  in
  if phases = [] then ""
  else begin
    let total =
      List.fold_left
        (fun acc p -> acc + Metrics.get_counter m ("phase_us." ^ p))
        0 phases
    in
    let counters_of p =
      let prefix = Printf.sprintf "phase.%s." p in
      let plen = String.length prefix in
      List.filter_map
        (fun n ->
          if String.length n > plen && String.sub n 0 plen = prefix then
            Some
              (Printf.sprintf "%s %d"
                 (String.sub n plen (String.length n - plen))
                 (Metrics.get_counter m n))
          else None)
        (Metrics.counter_names m)
    in
    let grid =
      Support.Textgrid.create
        ~columns:Support.Textgrid.[ Left; Right; Right; Left ]
    in
    Support.Textgrid.add_row grid [ "phase"; "us"; "share"; "work" ];
    Support.Textgrid.add_rule grid;
    let by_cost =
      List.sort
        (fun a b ->
          compare
            (Metrics.get_counter m ("phase_us." ^ b))
            (Metrics.get_counter m ("phase_us." ^ a)))
        phases
    in
    List.iter
      (fun p ->
        let us = Metrics.get_counter m ("phase_us." ^ p) in
        let share =
          if total = 0 then 0.
          else 100. *. float_of_int us /. float_of_int total
        in
        Support.Textgrid.add_row grid
          [ p;
            string_of_int us;
            Printf.sprintf "%.1f%%" share;
            String.concat ", " (counters_of p) ])
      by_cost;
    Support.Textgrid.render grid
  end

(* "site.<id>.<what>" -> (id, what) *)
let site_counter name =
  if String.length name > 5 && String.sub name 0 5 = "site." then begin
    match String.index_from_opt name 5 '.' with
    | Some dot ->
      (match int_of_string_opt (String.sub name 5 (dot - 5)) with
       | Some id ->
         Some (id, String.sub name (dot + 1) (String.length name - dot - 1))
       | None -> None)
    | None -> None
  end
  else None

let site_table ?(site_name = fun id -> Printf.sprintf "site-%d" id) m =
  let sites = Hashtbl.create 16 in
  List.iter
    (fun n ->
      match site_counter n with
      | Some (id, _) -> Hashtbl.replace sites id ()
      | None -> ())
    (Metrics.counter_names m);
  let ids = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) sites []) in
  if ids = [] then ""
  else begin
    let survived id = Metrics.get_counter m (Printf.sprintf "site.%d.survived_w" id) in
    let grid =
      Support.Textgrid.create
        ~columns:Support.Textgrid.[ Left; Right; Right; Right ]
    in
    Support.Textgrid.add_row grid
      [ "site"; "survived_w"; "objects"; "pretenured_w" ];
    Support.Textgrid.add_rule grid;
    let by_survival =
      List.sort (fun a b -> compare (survived b) (survived a)) ids
    in
    List.iter
      (fun id ->
        Support.Textgrid.add_row grid
          [ site_name id;
            string_of_int (survived id);
            string_of_int
              (Metrics.get_counter m
                 (Printf.sprintf "site.%d.survived_objects" id));
            string_of_int
              (Metrics.get_counter m
                 (Printf.sprintf "site.%d.pretenured_w" id)) ])
      by_survival;
    Support.Textgrid.render grid
  end

let render ?site_name m =
  let sections =
    [ pause_histograms m; phase_breakdown m; site_table ?site_name m ]
  in
  String.concat "\n" (List.filter (fun s -> s <> "") sections)

(* --- offline profile reports (gc-profile) --- *)

let default_site_name id = Printf.sprintf "site-%d" id

let pct f = Printf.sprintf "%.1f%%" (100. *. f)

let take n l =
  let rec go n = function
    | x :: rest when n > 0 -> x :: go (n - 1) rest
    | _ -> []
  in
  go n l

let survival_table ?(site_name = default_site_name) ?top (p : Profile.t) =
  if p.Profile.sites = [] then ""
  else begin
    let by_weight =
      List.sort
        (fun a b -> compare b.Profile.survived_words a.Profile.survived_words)
        p.Profile.sites
    in
    let shown, elided =
      match top with
      | Some n when List.length by_weight > n ->
        (take n by_weight, List.length by_weight - n)
      | _ -> (by_weight, 0)
    in
    let grid =
      Support.Textgrid.create
        ~columns:Support.Textgrid.[ Left; Right; Right; Right; Right; Left ]
    in
    Support.Textgrid.add_row grid
      [ "site"; "alloc_objs"; "alloc_w"; "survived_w"; "old%"; "" ];
    Support.Textgrid.add_rule grid;
    List.iter
      (fun s ->
        let old = Profile.old_fraction s in
        Support.Textgrid.add_row grid
          [ site_name s.Profile.site;
            string_of_int s.Profile.alloc_objects;
            string_of_int s.Profile.alloc_words;
            string_of_int s.Profile.survived_words;
            pct old;
            bar ~width:20 old
            ^ (if s.Profile.pretenured_objects > 0 then " [pretenured]" else "")
          ])
      shown;
    if elided > 0 then begin
      Support.Textgrid.add_rule grid;
      Support.Textgrid.add_row grid
        [ Printf.sprintf "(%d more sites)" elided; ""; ""; ""; ""; "" ]
    end;
    Support.Textgrid.render grid
  end

let pause_table (p : Profile.t) =
  match Profile.pause_percentiles p with
  | [] -> ""
  | entries ->
    let grid =
      Support.Textgrid.create
        ~columns:
          Support.Textgrid.[ Left; Right; Right; Right; Right; Right; Right;
                             Right ]
    in
    Support.Textgrid.add_row grid
      [ "pause"; "count"; "p50_us"; "p90_us"; "p99_us"; "p99.9_us"; "max_us";
        "total_us" ];
    Support.Textgrid.add_rule grid;
    List.iter
      (fun (kind, (pc : Profile.percentiles)) ->
        Support.Textgrid.add_row grid
          [ kind;
            string_of_int pc.Profile.count;
            Printf.sprintf "%.1f" pc.Profile.p50;
            Printf.sprintf "%.1f" pc.Profile.p90;
            Printf.sprintf "%.1f" pc.Profile.p99;
            Printf.sprintf "%.1f" pc.Profile.p999;
            Printf.sprintf "%.1f" pc.Profile.max_us;
            Printf.sprintf "%.1f" pc.Profile.total_us ])
      entries;
    Support.Textgrid.render grid

let mmu_table (p : Profile.t) ~windows_us =
  if windows_us = [] then ""
  else begin
    let grid =
      Support.Textgrid.create ~columns:Support.Textgrid.[ Right; Right; Left ]
    in
    Support.Textgrid.add_row grid [ "window_us"; "mmu"; "" ];
    Support.Textgrid.add_rule grid;
    List.iter
      (fun (w, u) ->
        Support.Textgrid.add_row grid
          [ Printf.sprintf "%.0f" w; pct u; bar ~width:30 u ])
      (Profile.mmu_curve p ~windows_us);
    Support.Textgrid.render grid
  end

let census_table ?(site_name = default_site_name) ?top (p : Profile.t) =
  match List.rev p.Profile.censuses with
  | [] -> ""
  | last :: _ ->
    let by_words =
      List.sort
        (fun a b -> compare b.Profile.c_words a.Profile.c_words)
        last.Profile.rows
    in
    let shown, elided =
      match top with
      | Some n when List.length by_words > n ->
        (take n by_words, List.length by_words - n)
      | _ -> (by_words, 0)
    in
    let grid =
      Support.Textgrid.create
        ~columns:Support.Textgrid.[ Left; Right; Right; Left ]
    in
    Support.Textgrid.add_row grid
      [ Printf.sprintf "census (gc %d)" last.Profile.census_gc;
        "live_objs"; "live_w"; "ages" ];
    Support.Textgrid.add_rule grid;
    List.iter
      (fun (r : Profile.census_row) ->
        Support.Textgrid.add_row grid
          [ site_name r.Profile.c_site;
            string_of_int r.Profile.c_objects;
            string_of_int r.Profile.c_words;
            String.concat " "
              (List.map
                 (fun (b, n) -> Printf.sprintf "%s:%d" b n)
                 r.Profile.c_ages) ])
      shown;
    if elided > 0 then begin
      Support.Textgrid.add_rule grid;
      Support.Textgrid.add_row grid
        [ Printf.sprintf "(%d more sites)" elided; ""; ""; "" ]
    end;
    Support.Textgrid.render grid

let scan_table (p : Profile.t) =
  let s = p.Profile.scan in
  if s.Profile.scans = 0 then ""
  else begin
    let grid =
      Support.Textgrid.create ~columns:Support.Textgrid.[ Left; Right ]
    in
    let frames = s.Profile.frames_decoded + s.Profile.frames_reused in
    Support.Textgrid.add_row grid [ "stack scans"; string_of_int s.Profile.scans ];
    Support.Textgrid.add_rule grid;
    Support.Textgrid.add_row grid
      [ "frames decoded"; string_of_int s.Profile.frames_decoded ];
    Support.Textgrid.add_row grid
      [ "frames reused (markers)"; string_of_int s.Profile.frames_reused ];
    Support.Textgrid.add_row grid
      [ "reuse rate";
        (if frames = 0 then "-"
         else pct (float_of_int s.Profile.frames_reused /. float_of_int frames))
      ];
    Support.Textgrid.add_row grid
      [ "slots decoded"; string_of_int s.Profile.slots_decoded ];
    Support.Textgrid.add_row grid
      [ "roots found"; string_of_int s.Profile.scan_roots ];
    (match List.assoc_opt "roots" p.Profile.phase_us with
     | Some us ->
       Support.Textgrid.add_row grid
         [ "root-phase time"; Printf.sprintf "%.0f us" us ]
     | None -> ());
    Support.Textgrid.render grid
  end

(* one line per run: the Section 7.2 scan-elision effect — how much
   pretenured-region walking the elision switch removed *)
let region_scan_line (p : Profile.t) =
  let scanned = p.Profile.region_scanned_w
  and skipped = p.Profile.region_skipped_w in
  if scanned = 0 && skipped = 0 then ""
  else begin
    let total = scanned + skipped in
    Printf.sprintf "region_scan: %d w scanned, %d w skipped (%s elided)"
      scanned skipped
      (if total = 0 then "-"
       else pct (float_of_int skipped /. float_of_int total))
  end

let backend_table (p : Profile.t) =
  if p.Profile.backends = [] then ""
  else begin
    let grid =
      Support.Textgrid.create
        ~columns:Support.Textgrid.[ Left; Left; Right; Right; Right; Right; Right ]
    in
    Support.Textgrid.add_row grid
      [ "region"; "backend"; "live_w"; "free_w"; "holes"; "largest"; "frag" ];
    Support.Textgrid.add_rule grid;
    List.iter
      (fun (r : Profile.backend_row) ->
        let footprint = r.Profile.b_live_w + r.Profile.b_free_w in
        Support.Textgrid.add_row grid
          [ r.Profile.b_region;
            r.Profile.b_backend;
            string_of_int r.Profile.b_live_w;
            string_of_int r.Profile.b_free_w;
            string_of_int r.Profile.b_free_blocks;
            string_of_int r.Profile.b_largest_hole;
            (if footprint = 0 then "-"
             else
               pct (float_of_int r.Profile.b_free_w /. float_of_int footprint))
          ])
      p.Profile.backends;
    Support.Textgrid.render grid
  end

let profile_header (p : Profile.t) =
  let kinds =
    String.concat ", "
      (List.map
         (fun (k, n) -> Printf.sprintf "%d %s" n k)
         p.Profile.gc_kinds)
  in
  Printf.sprintf
    "%d events, %d collections (%s), %d sites, %.0f us span, %d w copied, %d w promoted"
    p.Profile.events p.Profile.collections
    (if kinds = "" then "none" else kinds)
    (List.length p.Profile.sites) p.Profile.span_us p.Profile.copied_w
    p.Profile.promoted_w

(* one line per run: SLO breaches recorded in the trace, per rule *)
let breach_line (p : Profile.t) =
  if p.Profile.slo_breaches = [] then ""
  else
    Printf.sprintf "slo_breaches: %d (%s)"
      (List.fold_left (fun acc (_, n) -> acc + n) 0 p.Profile.slo_breaches)
      (String.concat ", "
         (List.map
            (fun (rule, n) -> Printf.sprintf "%s:%d" rule n)
            p.Profile.slo_breaches))

(* the adaptive control plane's decision timeline, in trace order *)
let policy_table ?(site_name = default_site_name) (p : Profile.t) =
  if p.Profile.policy_updates = [] then ""
  else begin
    let grid =
      Support.Textgrid.create
        ~columns:Support.Textgrid.[ Right; Right; Left; Right; Right; Left ]
    in
    Support.Textgrid.add_row grid
      [ "gc"; "window"; "knob"; "old"; "new"; "signals" ];
    Support.Textgrid.add_rule grid;
    let knob_label k =
      (* pretenure knobs carry a site id; render it through site_name *)
      match String.index_opt k ':' with
      | Some i when String.sub k 0 i = "pretenure_site" ->
        (match
           int_of_string_opt (String.sub k (i + 1) (String.length k - i - 1))
         with
         | Some site -> "pretenure " ^ site_name site
         | None -> k)
      | _ -> k
    in
    List.iter
      (fun (u : Profile.policy_row) ->
        Support.Textgrid.add_row grid
          [ string_of_int u.Profile.u_gc;
            string_of_int u.Profile.u_window;
            knob_label u.Profile.u_knob;
            string_of_int u.Profile.u_old;
            string_of_int u.Profile.u_new;
            String.concat " "
              (List.map
                 (fun (k, v) -> Printf.sprintf "%s=%d" k v)
                 u.Profile.u_signals) ])
      p.Profile.policy_updates;
    Support.Textgrid.render grid
  end

let profile_report ?site_name ?top ~windows_us (p : Profile.t) =
  let sections =
    [ profile_header p;
      breach_line p;
      region_scan_line p;
      survival_table ?site_name ?top p;
      pause_table p;
      mmu_table p ~windows_us;
      census_table ?site_name ?top p;
      backend_table p;
      policy_table ?site_name p;
      scan_table p ]
  in
  String.concat "\n" (List.filter (fun s -> s <> "") sections)

let profile_diff ?(site_name = default_site_name) ?top ~a ~b () =
  let header = "A: " ^ profile_header a ^ "\nB: " ^ profile_header b in
  let site_section =
    let ids =
      List.sort_uniq compare
        (List.map (fun s -> s.Profile.site) a.Profile.sites
         @ List.map (fun s -> s.Profile.site) b.Profile.sites)
    in
    if ids = [] then ""
    else begin
      let stat (t : Profile.t) id = Profile.site_stats t ~site:id in
      let words t id =
        match stat t id with
        | Some s -> s.Profile.survived_words
        | None -> 0
      in
      let by_delta =
        List.sort
          (fun i j ->
            compare
              (abs (words b j - words a j))
              (abs (words b i - words a i)))
          ids
      in
      let shown =
        match top with
        | Some n when List.length by_delta > n -> take n by_delta
        | _ -> by_delta
      in
      let grid =
        Support.Textgrid.create
          ~columns:Support.Textgrid.[ Left; Right; Right; Right; Right ]
      in
      Support.Textgrid.add_row grid
        [ "site"; "survived_w A"; "survived_w B"; "old% A"; "old% B" ];
      Support.Textgrid.add_rule grid;
      List.iter
        (fun id ->
          let old t =
            match stat t id with
            | Some s -> pct (Profile.old_fraction s)
            | None -> "-"
          in
          Support.Textgrid.add_row grid
            [ site_name id;
              string_of_int (words a id);
              string_of_int (words b id);
              old a;
              old b ])
        shown;
      Support.Textgrid.render grid
    end
  in
  let pause_section =
    let pa = Profile.pause_percentiles a and pb = Profile.pause_percentiles b in
    let kinds =
      List.sort_uniq compare (List.map fst pa @ List.map fst pb)
    in
    if kinds = [] then ""
    else begin
      let grid =
        Support.Textgrid.create
          ~columns:Support.Textgrid.[ Left; Right; Right; Right; Right; Right; Right ]
      in
      Support.Textgrid.add_row grid
        [ "pause"; "p50 A"; "p50 B"; "p99 A"; "p99 B"; "total A"; "total B" ];
      Support.Textgrid.add_rule grid;
      List.iter
        (fun kind ->
          let f entries sel =
            match List.assoc_opt kind entries with
            | Some (pc : Profile.percentiles) -> Printf.sprintf "%.1f" (sel pc)
            | None -> "-"
          in
          Support.Textgrid.add_row grid
            [ kind;
              f pa (fun pc -> pc.Profile.p50);
              f pb (fun pc -> pc.Profile.p50);
              f pa (fun pc -> pc.Profile.p99);
              f pb (fun pc -> pc.Profile.p99);
              f pa (fun pc -> pc.Profile.total_us);
              f pb (fun pc -> pc.Profile.total_us) ])
        kinds;
      Support.Textgrid.render grid
    end
  in
  String.concat "\n"
    (List.filter (fun s -> s <> "") [ header; site_section; pause_section ])

(* --- machine-readable profile report --- *)

let profile_json ~windows_us (p : Profile.t) =
  let b = Buffer.create 2048 in
  let sep = ref false in
  let field k writer =
    if !sep then Buffer.add_char b ',';
    sep := true;
    Buffer.add_string b (Json.escape k);
    Buffer.add_char b ':';
    writer ()
  in
  let num f =
    (* JSON has no infinities/NaN; the analyzer never produces them but
       clamp defensively rather than emit an unparseable document *)
    if Float.is_finite f then Printf.sprintf "%.17g" f else "0"
  in
  let obj_of pairs writer =
    Buffer.add_char b '{';
    List.iteri
      (fun i kv ->
        if i > 0 then Buffer.add_char b ',';
        writer kv)
      pairs;
    Buffer.add_char b '}'
  in
  Buffer.add_char b '{';
  field "events" (fun () -> Buffer.add_string b (string_of_int p.Profile.events));
  field "collections" (fun () ->
      Buffer.add_string b (string_of_int p.Profile.collections));
  field "span_us" (fun () -> Buffer.add_string b (num p.Profile.span_us));
  field "copied_w" (fun () ->
      Buffer.add_string b (string_of_int p.Profile.copied_w));
  field "promoted_w" (fun () ->
      Buffer.add_string b (string_of_int p.Profile.promoted_w));
  field "gc_kinds" (fun () ->
      obj_of p.Profile.gc_kinds (fun (k, n) ->
          Buffer.add_string b (Json.escape k);
          Buffer.add_char b ':';
          Buffer.add_string b (string_of_int n)));
  field "pauses" (fun () ->
      obj_of (Profile.pause_percentiles p)
        (fun (kind, (pc : Profile.percentiles)) ->
          Buffer.add_string b (Json.escape kind);
          Buffer.add_char b ':';
          Buffer.add_string b
            (Printf.sprintf
               "{\"count\":%d,\"p50_us\":%s,\"p90_us\":%s,\"p99_us\":%s,\
                \"p99_9_us\":%s,\"max_us\":%s,\"total_us\":%s}"
               pc.Profile.count (num pc.Profile.p50) (num pc.Profile.p90)
               (num pc.Profile.p99) (num pc.Profile.p999)
               (num pc.Profile.max_us) (num pc.Profile.total_us))));
  field "mmu" (fun () ->
      obj_of (Profile.mmu_curve p ~windows_us) (fun (w, u) ->
          Buffer.add_string b (Json.escape (Printf.sprintf "%.0f" w));
          Buffer.add_char b ':';
          Buffer.add_string b (num u)));
  field "slo_breaches" (fun () ->
      obj_of p.Profile.slo_breaches (fun (rule, n) ->
          Buffer.add_string b (Json.escape rule);
          Buffer.add_char b ':';
          Buffer.add_string b (string_of_int n)));
  field "policy_updates" (fun () ->
      Buffer.add_char b '[';
      List.iteri
        (fun i (u : Profile.policy_row) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf "{\"gc\":%d,\"window\":%d,\"knob\":%s,\"old\":%d,\"new\":%d,\"signals\":"
               u.Profile.u_gc u.Profile.u_window
               (Json.escape u.Profile.u_knob) u.Profile.u_old u.Profile.u_new);
          obj_of u.Profile.u_signals (fun (k, v) ->
              Buffer.add_string b (Json.escape k);
              Buffer.add_char b ':';
              Buffer.add_string b (string_of_int v));
          Buffer.add_char b '}')
        p.Profile.policy_updates;
      Buffer.add_char b ']');
  field "sites" (fun () ->
      Buffer.add_char b '[';
      List.iteri
        (fun i (s : Profile.site) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf
               "{\"site\":%d,\"alloc_objects\":%d,\"alloc_words\":%d,\
                \"survived_words\":%d,\"pretenured_words\":%d,\
                \"old_fraction\":%s}"
               s.Profile.site s.Profile.alloc_objects s.Profile.alloc_words
               s.Profile.survived_words s.Profile.pretenured_words
               (num (Profile.old_fraction s))))
        p.Profile.sites;
      Buffer.add_char b ']');
  Buffer.add_char b '}';
  Buffer.add_char b '\n';
  Buffer.contents b
