(* per-site accumulators in one flat array, [width] columns per site at
   [width * site]; ages are on the allocation clock.  The age sum is
   kept in bytes, as an int: below 2^53 bytes its KB value is exactly
   the sum of per-death KB ages (dividing by 1024 is exact in binary
   floating point). *)
let alloc_bytes = 0
let alloc_count = 1
let survived_count = 2  (* objects that survived their first GC *)
let copied_bytes = 3    (* every copy of every object, summed *)
let death_count = 4
let death_age_sum = 5   (* bytes *)
let width = 6

type t = {
  now_bytes : unit -> int;
  mutable cols : int array;
  mutable total_alloc : int;
  mutable total_copied : int;
}

let create ~now_bytes =
  { now_bytes; cols = [||]; total_alloc = 0; total_copied = 0 }

(* the first column of [site]'s row, growing the table to hold it *)
let row t site =
  let i = width * site in
  if i >= Array.length t.cols then
    t.cols <- Collectors.Site_tally.fit ~width t.cols site;
  i

let add t i col v = t.cols.(i + col) <- t.cols.(i + col) + v

let bytes_of words = words * Mem.Memory.bytes_per_word

let fold_allocs t rows =
  for r = 0 to Collectors.Site_tally.length rows - 1 do
    let site = Collectors.Site_tally.site rows r in
    let bytes = bytes_of (Collectors.Site_tally.sum rows site) in
    let i = row t site in
    add t i alloc_bytes bytes;
    add t i alloc_count (Collectors.Site_tally.objects rows site);
    t.total_alloc <- t.total_alloc + bytes
  done

let fold_copies t rows =
  for r = 0 to Collectors.Site_tally.length rows - 1 do
    let site = Collectors.Site_tally.site rows r in
    let bytes = bytes_of (Collectors.Site_tally.sum rows site) in
    let i = row t site in
    add t i survived_count (Collectors.Site_tally.firsts rows site);
    add t i copied_bytes bytes;
    t.total_copied <- t.total_copied + bytes
  done

(* every death of a row happened at [now]: nothing allocates while a
   collection or the exit walk counts them, so their ages sum to
   [objects * now - Σ birth] *)
let fold_deaths t rows =
  let now = t.now_bytes () in
  for r = 0 to Collectors.Site_tally.length rows - 1 do
    let site = Collectors.Site_tally.site rows r in
    let objects = Collectors.Site_tally.objects rows site in
    let i = row t site in
    add t i death_count objects;
    add t i death_age_sum ((objects * now) - Collectors.Site_tally.sum rows site)
  done

let ratio num den = if den = 0 then 0. else num /. float_of_int den

(* a site has a row once some fold counted an object of it; every row
   of a fold counts at least one (a copy adds at least a header's
   bytes) *)
let data t ~site_name =
  let sites = ref [] in
  for site = (Array.length t.cols / width) - 1 downto 0 do
    let col c = t.cols.((width * site) + c) in
    if col alloc_count > 0 || col copied_bytes > 0 || col death_count > 0
    then
      sites :=
        { Profile_data.site;
          name = site_name site;
          alloc_bytes = col alloc_bytes;
          alloc_count = col alloc_count;
          old_fraction =
            ratio (float_of_int (col survived_count)) (col alloc_count);
          avg_age_kb =
            ratio (float_of_int (col death_age_sum) /. 1024.) (col death_count);
          copied_bytes = col copied_bytes }
        :: !sites
  done;
  { Profile_data.sites = !sites;
    total_alloc_bytes = t.total_alloc;
    total_copied_bytes = t.total_copied }
