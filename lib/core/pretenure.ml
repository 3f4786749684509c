module Int_set = Site_flow.Int_set

type t = {
  sites : Int_set.t;
  no_scan : Int_set.t;
}

let none = { sites = Int_set.empty; no_scan = Int_set.empty }

let of_sites ~sites ~no_scan =
  let sites = Int_set.of_list sites in
  let no_scan = Int_set.of_list no_scan in
  if not (Int_set.subset no_scan sites) then
    invalid_arg "Pretenure.of_sites: no_scan must be a subset of sites";
  { sites; no_scan }

let of_policy p =
  of_sites ~sites:p.Policy_file.sites ~no_scan:p.Policy_file.no_scan

let of_profile data ~cutoff ~min_objects ~scan_elision =
  of_policy
    (Policy_file.of_profile_data data ~cutoff ~min_objects ~scan_elision)

let is_empty t = Int_set.is_empty t.sites
let pretenured_sites t = Int_set.elements t.sites
let no_scan_sites t = Int_set.elements t.no_scan

let pp fmt t =
  Format.fprintf fmt "pretenure{sites=%a; no_scan=%a}"
    (Format.pp_print_list
       ~pp_sep:(fun f () -> Format.pp_print_string f ",")
       Format.pp_print_int)
    (Int_set.elements t.sites)
    (Format.pp_print_list
       ~pp_sep:(fun f () -> Format.pp_print_string f ",")
       Format.pp_print_int)
    (Int_set.elements t.no_scan)
