type t = {
  seen : (Mem.Addr.t, unit) Hashtbl.t;
  mutable order : Mem.Addr.t Support.Vec.t;
  mutable draining : Mem.Addr.t Support.Vec.t; (* spare buffer for drains *)
  mutable total : int;
}

let create () =
  { seen = Hashtbl.create 256;
    order = Support.Vec.create ();
    draining = Support.Vec.create ();
    total = 0 }

let record t obj =
  t.total <- t.total + 1;
  if not (Hashtbl.mem t.seen obj) then begin
    Hashtbl.replace t.seen obj ();
    Support.Vec.push t.order obj
  end

let length t = Support.Vec.length t.order

let total_recorded t = t.total

let drain t f env =
  (* swap-then-iterate: [f] may re-record objects for the next
     collection (aging nurseries), so the set is emptied before any
     callback runs; the spare buffer makes the drain allocation-free *)
  let snapshot = t.order in
  t.order <- t.draining;
  t.draining <- snapshot;
  Hashtbl.reset t.seen;
  for i = 0 to Support.Vec.length snapshot - 1 do
    f env (Support.Vec.get snapshot i)
  done;
  Support.Vec.clear snapshot

let clear t =
  Support.Vec.clear t.order;
  Hashtbl.reset t.seen
