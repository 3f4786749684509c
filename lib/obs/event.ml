let version = 6

type t =
  | Gc_begin of {
      kind : string;
      nursery_w : int;
      tenured_w : int;
      los_w : int;
    }
  | Gc_end of {
      kind : string;
      pause_us : float;
      copied_w : int;
      promoted_w : int;
      live_w : int;
    }
  | Phase of {
      name : string;
      dur_us : float;
      counters : (string * int) list;
    }
  | Stack_scan of {
      mode : string;
      valid_prefix : int;
      depth : int;
      decoded : int;
      reused : int;
      slots : int;
      roots : int;
    }
  | Site_survival of {
      site : int;
      objects : int;
      first_objects : int;
      words : int;
    }
  | Site_alloc of {
      site : int;
      objects : int;
      words : int;
    }
  | Census of {
      site : int;
      objects : int;
      words : int;
      ages : (string * int) list;
    }
  | Pretenure of {
      site : int;
      words : int;
    }
  | Marker_place of {
      installed : int;
      depth : int;
    }
  | Unwind of { target_depth : int }
  | Backend_stats of {
      region : string;
      backend : string;
      live_w : int;
      free_w : int;
      free_blocks : int;
      largest_hole : int;
    }
  | Slo_breach of {
      rule : string;
      observed_us : float;
      limit_us : float;
      window_us : float;
    }
  | Policy_update of {
      knob : string;
      old_value : int;
      new_value : int;
      window : int;
      signals : (string * int) list;
    }

let name = function
  | Gc_begin _ -> "gc_begin"
  | Gc_end _ -> "gc_end"
  | Phase _ -> "phase"
  | Stack_scan _ -> "stack_scan"
  | Site_survival _ -> "site_survival"
  | Site_alloc _ -> "site_alloc"
  | Census _ -> "census"
  | Pretenure _ -> "pretenure"
  | Marker_place _ -> "marker_place"
  | Unwind _ -> "unwind"
  | Backend_stats _ -> "backend_stats"
  | Slo_breach _ -> "slo_breach"
  | Policy_update _ -> "policy_update"

(* Serialisation is a straight-line Buffer write: emission runs inside
   GC pauses, so no intermediate [Json.t] is built. *)

let field_int b k v =
  Buffer.add_string b ",\"";
  Buffer.add_string b k;
  Buffer.add_string b "\":";
  Buffer.add_string b (string_of_int v)

let field_us b k v =
  Buffer.add_string b ",\"";
  Buffer.add_string b k;
  Buffer.add_string b "\":";
  Buffer.add_string b (Printf.sprintf "%.1f" v)

let field_str b k v =
  Buffer.add_string b ",\"";
  Buffer.add_string b k;
  Buffer.add_string b "\":";
  Buffer.add_string b (Json.escape v)

let field_counters b k pairs =
  Buffer.add_string b ",\"";
  Buffer.add_string b k;
  Buffer.add_string b "\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Json.escape k);
      Buffer.add_char b ':';
      Buffer.add_string b (string_of_int v))
    pairs;
  Buffer.add_char b '}'

let write b ~seq ~t_us ~gc ~dom e =
  Buffer.add_string b "{\"v\":";
  Buffer.add_string b (string_of_int version);
  Buffer.add_string b ",\"seq\":";
  Buffer.add_string b (string_of_int seq);
  Buffer.add_string b ",\"t_us\":";
  Buffer.add_string b (Printf.sprintf "%.1f" t_us);
  field_int b "gc" gc;
  field_int b "dom" dom;
  field_str b "ev" (name e);
  (match e with
   | Gc_begin { kind; nursery_w; tenured_w; los_w } ->
     field_str b "kind" kind;
     field_int b "nursery_w" nursery_w;
     field_int b "tenured_w" tenured_w;
     field_int b "los_w" los_w
   | Gc_end { kind; pause_us; copied_w; promoted_w; live_w } ->
     field_str b "kind" kind;
     field_us b "pause_us" pause_us;
     field_int b "copied_w" copied_w;
     field_int b "promoted_w" promoted_w;
     field_int b "live_w" live_w
   | Phase { name; dur_us; counters } ->
     field_str b "name" name;
     field_us b "dur_us" dur_us;
     field_counters b "counters" counters
   | Stack_scan { mode; valid_prefix; depth; decoded; reused; slots; roots } ->
     field_str b "mode" mode;
     field_int b "valid_prefix" valid_prefix;
     field_int b "depth" depth;
     field_int b "decoded" decoded;
     field_int b "reused" reused;
     field_int b "slots" slots;
     field_int b "roots" roots
   | Site_survival { site; objects; first_objects; words } ->
     field_int b "site" site;
     field_int b "objects" objects;
     field_int b "first_objects" first_objects;
     field_int b "words" words
   | Site_alloc { site; objects; words } ->
     field_int b "site" site;
     field_int b "objects" objects;
     field_int b "words" words
   | Census { site; objects; words; ages } ->
     field_int b "site" site;
     field_int b "objects" objects;
     field_int b "words" words;
     field_counters b "ages" ages
   | Pretenure { site; words } ->
     field_int b "site" site;
     field_int b "words" words
   | Marker_place { installed; depth } ->
     field_int b "installed" installed;
     field_int b "depth" depth
   | Unwind { target_depth } -> field_int b "target_depth" target_depth
   | Backend_stats { region; backend; live_w; free_w; free_blocks; largest_hole } ->
     field_str b "region" region;
     field_str b "backend" backend;
     field_int b "live_w" live_w;
     field_int b "free_w" free_w;
     field_int b "free_blocks" free_blocks;
     field_int b "largest_hole" largest_hole
   | Slo_breach { rule; observed_us; limit_us; window_us } ->
     field_str b "rule" rule;
     field_us b "observed_us" observed_us;
     field_us b "limit_us" limit_us;
     field_us b "window_us" window_us
   | Policy_update { knob; old_value; new_value; window; signals } ->
     field_str b "knob" knob;
     field_int b "old" old_value;
     field_int b "new" new_value;
     field_int b "window" window;
     field_counters b "signals" signals);
  Buffer.add_string b "}\n"
