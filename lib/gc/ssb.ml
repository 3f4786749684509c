type t = {
  entries : Mem.Addr.t Support.Vec.t;
  mutable total : int;
}

(* Room for the stores a run typically makes between two collections.
   Grown from empty instead, the buffer (and the spare a drain used to
   swap in) doubled up over the first collections of every run: 1,020
   of the 1,067 host words of bench's façade mix (2,000 rounds, 9
   minors, about 200 stores per minor). *)
let initial_capacity = 256

let create () =
  let entries = Support.Vec.make initial_capacity Mem.Addr.null in
  Support.Vec.clear entries;
  { entries; total = 0 }

let record t loc =
  Support.Vec.push t.entries loc;
  t.total <- t.total + 1

let length t = Support.Vec.length t.entries

let total_recorded t = t.total

let drain t f env =
  (* the callback may record new entries (the collector re-remembers
     surviving old-to-young edges under aging nurseries): they land
     after the [n] being drained, and move to the front to survive for
     the next collection *)
  let v = t.entries in
  let n = Support.Vec.length v in
  for i = 0 to n - 1 do
    f env (Support.Vec.get v i)
  done;
  let kept = Support.Vec.length v - n in
  for i = 0 to kept - 1 do
    Support.Vec.set v i (Support.Vec.get v (n + i))
  done;
  Support.Vec.truncate v kept

let clear t = Support.Vec.clear t.entries
