type t = {
  scan_stack : Rstack.Scan.mode -> Rstack.Root.Buf.t -> Rstack.Scan.result;
  visit_globals : Rstack.Scan.mode -> Rstack.Root.Buf.t -> unit;
  after_collection :
    full:bool ->
    allocs:Site_tally.t ->
    copies:Site_tally.t ->
    deaths:Site_tally.t ->
    unit;
  profiling : bool;
  scan_elision : bool;
  set_pretenure : site:int -> enabled:bool -> unit;
}

let nothing = {
  scan_stack = (fun _mode _roots -> Rstack.Scan.result ());
  visit_globals = (fun _ _ -> ());
  after_collection = (fun ~full:_ ~allocs:_ ~copies:_ ~deaths:_ -> ());
  profiling = false;
  scan_elision = false;
  set_pretenure = (fun ~site:_ ~enabled:_ -> ());
}
