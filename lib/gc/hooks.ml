type object_hooks = { on_die : site:int -> birth:int -> words:int -> unit }

type t = {
  scan_stack : Rstack.Scan.mode -> Rstack.Root.Buf.t -> Rstack.Scan.result;
  visit_globals : Rstack.Scan.mode -> Rstack.Root.Buf.t -> unit;
  after_collection :
    full:bool ->
    allocs:(int * int * int) list ->
    copies:(int * int * int * int) list ->
    unit;
  object_hooks : object_hooks option;
  site_needs_scan : int -> bool;
  set_pretenure : site:int -> enabled:bool -> unit;
}

let nothing = {
  scan_stack = (fun _mode _roots -> Rstack.Scan.result ());
  visit_globals = (fun _ _ -> ());
  after_collection = (fun ~full:_ ~allocs:_ ~copies:_ -> ());
  object_hooks = None;
  site_needs_scan = (fun _ -> true);
  set_pretenure = (fun ~site:_ ~enabled:_ -> ());
}
