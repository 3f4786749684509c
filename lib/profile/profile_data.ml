type site = {
  site : int;
  name : string;
  alloc_bytes : int;
  alloc_count : int;
  old_fraction : float;
  avg_age_kb : float;
  copied_bytes : int;
}

type t = {
  sites : site list;
  total_alloc_bytes : int;
  total_copied_bytes : int;
}

let select_pretenure_sites t ~cutoff ~min_objects =
  List.filter_map
    (fun s ->
      if s.old_fraction >= cutoff && s.alloc_count >= min_objects then Some s.site
      else None)
    t.sites

let targeted_shares t ~sites =
  let in_set site = List.mem site sites in
  let copied, alloc =
    List.fold_left
      (fun (c, a) s ->
        if in_set s.site then (c + s.copied_bytes, a + s.alloc_bytes) else (c, a))
      (0, 0) t.sites
  in
  ( Support.Units.ratio (float_of_int copied) (float_of_int t.total_copied_bytes),
    Support.Units.ratio (float_of_int alloc) (float_of_int t.total_alloc_bytes) )
