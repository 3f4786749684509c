type obs = {
  o_survival : (int * int * int * int) list;
  o_alloc : (int * int * int) list;
}

type decision = {
  d_knob : string;
  d_old : int;
  d_new : int;
  d_window : int;
  d_signals : (string * int) list;
}

(* Per-window per-site accumulators.  Everything the rule reads is a
   count, reduced to permille by integer division, and both the online
   feed and the offline replay go through this exact code, so a
   decision can only come out one way. *)
type t = {
  p : Params.t;
  mutable window : int;          (* ordinal of the window being filled *)
  mutable n_obs : int;
  site_alloc : (int, int) Hashtbl.t;     (* objects *)
  site_firsts : (int, int) Hashtbl.t;    (* first-collection survivors *)
  site_pret : (int, int) Hashtbl.t;      (* pretenured objects *)
  (* knob state *)
  pretenured : (int, bool) Hashtbl.t;
  last_change : (int, int) Hashtbl.t;    (* site -> window *)
}

let create p ~pretenured =
  let tbl = Hashtbl.create 16 in
  List.iter (fun site -> Hashtbl.replace tbl site true) pretenured;
  { p;
    window = 1;
    n_obs = 0;
    site_alloc = Hashtbl.create 32;
    site_firsts = Hashtbl.create 32;
    site_pret = Hashtbl.create 8;
    pretenured = tbl;
    last_change = Hashtbl.create 8 }

let pretenured t site =
  Option.value ~default:false (Hashtbl.find_opt t.pretenured site)

let knob_prefix = "pretenure_site:"

let site_of_knob knob =
  let n = String.length knob_prefix in
  int_of_string (String.sub knob n (String.length knob - n))

let count tbl site = Option.value ~default:0 (Hashtbl.find_opt tbl site)
let add tbl site n = Hashtbl.replace tbl site (count tbl site + n)

let note_pretenured t site = add t.site_pret site 1

let permille num den = if den <= 0 then 0 else num * 1000 / den

let allowed t site =
  match Hashtbl.find_opt t.last_change site with
  | None -> true
  | Some w0 -> t.window - w0 > t.p.Params.cooldown

(* The rule pass, run when a window closes: judge every site the window
   allocated enough of, in ascending site order, so the decision list
   (and hence the emission order of the [policy_update] records) is
   deterministic.  Survivors of a first collection plus objects
   pretenured by fiat over allocations — the windowed form of the
   paper's old% — crossing the cutoff enables the site; falling under
   the demote band disables it (band hysteresis on top of the
   cooldown). *)
let decide t =
  let p = t.p in
  let sites =
    List.sort compare
      (Hashtbl.fold (fun site _ acc -> site :: acc) t.site_alloc [])
  in
  List.filter_map
    (fun site ->
      let objects = count t.site_alloc site in
      if objects < p.Params.min_site_objects || not (allowed t site) then None
      else begin
        let old_pm =
          permille (count t.site_firsts site + count t.site_pret site) objects
        in
        let on = pretenured t site in
        if (not on) && old_pm >= p.Params.cutoff_permille
           || on && old_pm < p.Params.demote_permille
        then begin
          Hashtbl.replace t.pretenured site (not on);
          Hashtbl.replace t.last_change site t.window;
          let b = Bool.to_int on in
          Some
            { d_knob = knob_prefix ^ string_of_int site;
              d_old = b;
              d_new = 1 - b;
              d_window = t.window;
              d_signals = [ ("old_permille", old_pm); ("objects", objects) ] }
        end
        else None
      end)
    sites

let observe t o =
  t.n_obs <- t.n_obs + 1;
  List.iter (fun (site, objects, _) -> add t.site_alloc site objects) o.o_alloc;
  List.iter
    (fun (site, _, firsts, _) -> add t.site_firsts site firsts)
    o.o_survival;
  if t.n_obs >= t.p.Params.window then begin
    let ds = decide t in
    t.n_obs <- 0;
    Hashtbl.reset t.site_alloc;
    Hashtbl.reset t.site_firsts;
    Hashtbl.reset t.site_pret;
    t.window <- t.window + 1;
    ds
  end
  else []
