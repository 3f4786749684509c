type t = {
  mutable entries : Mem.Addr.t Support.Vec.t;
  mutable draining : Mem.Addr.t Support.Vec.t; (* spare buffer for drains *)
  mutable total : int;
}

let create () =
  { entries = Support.Vec.create ();
    draining = Support.Vec.create ();
    total = 0 }

let record t loc =
  Support.Vec.push t.entries loc;
  t.total <- t.total + 1

let length t = Support.Vec.length t.entries

let total_recorded t = t.total

let drain t f env =
  (* the callback may record new entries (the collector re-remembers
     surviving old-to-young edges under aging nurseries): swap in the
     spare buffer first so those records survive for the next
     collection.  The swap replaces the old list snapshot — a drain is
     allocation-free once both buffers have grown. *)
  let snapshot = t.entries in
  t.entries <- t.draining;
  t.draining <- snapshot;
  for i = 0 to Support.Vec.length snapshot - 1 do
    f env (Support.Vec.get snapshot i)
  done;
  Support.Vec.clear snapshot

let clear t = Support.Vec.clear t.entries
