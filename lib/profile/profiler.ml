(* per-site accumulators; ages are on the allocation clock.  The age
   sum is kept in bytes, as an int: an unboxed update per death, and
   below 2^53 bytes its KB value is exactly the sum of per-death KB
   ages (dividing by 1024 is exact in binary floating point). *)
type site = {
  mutable alloc_bytes : int;
  mutable alloc_count : int;
  mutable survived_count : int;  (* objects that survived their first GC *)
  mutable copied_bytes : int;    (* every copy of every object, summed *)
  mutable death_count : int;
  mutable death_age_sum : int;   (* bytes *)
}

type t = {
  now_bytes : unit -> int;
  table : (int, site) Hashtbl.t;
  edge_set : (int * int, unit) Hashtbl.t;
  mutable total_alloc : int;
  mutable total_copied : int;
}

let create ~now_bytes =
  { now_bytes;
    table = Hashtbl.create 256;
    edge_set = Hashtbl.create 256;
    total_alloc = 0;
    total_copied = 0 }

let site_stats t site =
  match Hashtbl.find t.table site with
  | s -> s
  | exception Not_found ->
    let s =
      { alloc_bytes = 0;
        alloc_count = 0;
        survived_count = 0;
        copied_bytes = 0;
        death_count = 0;
        death_age_sum = 0 }
    in
    Hashtbl.replace t.table site s;
    s

let bytes_of words = words * Mem.Memory.bytes_per_word

let fold_allocs t rows =
  List.iter
    (fun (site, objects, words) ->
      let s = site_stats t site in
      s.alloc_bytes <- s.alloc_bytes + bytes_of words;
      s.alloc_count <- s.alloc_count + objects;
      t.total_alloc <- t.total_alloc + bytes_of words)
    rows

let fold_copies t rows =
  List.iter
    (fun (site, _objects, first_objects, words) ->
      let s = site_stats t site in
      s.survived_count <- s.survived_count + first_objects;
      s.copied_bytes <- s.copied_bytes + bytes_of words;
      t.total_copied <- t.total_copied + bytes_of words)
    rows

let note_edge t ~from_site ~to_site =
  let key = (from_site, to_site) in
  if not (Hashtbl.mem t.edge_set key) then Hashtbl.replace t.edge_set key ()

let on_die t ~site ~birth ~words:_ =
  let s = site_stats t site in
  s.death_count <- s.death_count + 1;
  s.death_age_sum <- s.death_age_sum + (t.now_bytes () - birth)

let ratio num den = if den = 0 then 0. else num /. float_of_int den

let data t ~site_name =
  let sites =
    Hashtbl.fold
      (fun site s acc ->
        { Profile_data.site;
          name = site_name site;
          alloc_bytes = s.alloc_bytes;
          alloc_count = s.alloc_count;
          old_fraction = ratio (float_of_int s.survived_count) s.alloc_count;
          avg_age_kb =
            ratio (float_of_int s.death_age_sum /. 1024.) s.death_count;
          copied_bytes = s.copied_bytes }
        :: acc)
      t.table []
    |> List.sort (fun (a : Profile_data.site) b -> Int.compare a.site b.site)
  in
  { Profile_data.sites;
    edges =
      List.sort compare (Hashtbl.fold (fun e () acc -> e :: acc) t.edge_set []);
    total_alloc_bytes = t.total_alloc;
    total_copied_bytes = t.total_copied }
