type t = {
  window : int;
  cooldown : int;
  cutoff_permille : int;
  demote_permille : int;
  min_site_objects : int;
}

let default ?(window = 4) ?(cooldown = 1) () =
  if window < 1 then invalid_arg "Params.default: window";
  if cooldown < 0 then invalid_arg "Params.default: cooldown";
  { window;
    cooldown;
    cutoff_permille = 800;
    demote_permille = 400;
    min_site_objects = 32 }
