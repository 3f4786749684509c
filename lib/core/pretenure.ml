module Int_set = Set.Make (Int)

type t = {
  sites : Int_set.t;
  scan_elision : bool;
}

let none = { sites = Int_set.empty; scan_elision = false }

let of_sites ~sites ~scan_elision =
  { sites = Int_set.of_list sites; scan_elision }

let of_policy p =
  of_sites ~sites:p.Policy_file.sites ~scan_elision:p.Policy_file.scan_elision

let of_profile data ~cutoff ~min_objects ~scan_elision =
  of_policy
    (Policy_file.of_profile_data data ~cutoff ~min_objects ~scan_elision)

let is_empty t = Int_set.is_empty t.sites
let pretenured_sites t = Int_set.elements t.sites
let scan_elision t = t.scan_elision

let pp fmt t =
  Format.fprintf fmt "pretenure{sites=%a; scan_elision=%b}"
    (Format.pp_print_list
       ~pp_sep:(fun f () -> Format.pp_print_string f ",")
       Format.pp_print_int)
    (Int_set.elements t.sites)
    t.scan_elision
