type t = {
  entries : Support.Int_vec.t;  (* raw addresses ([Mem.Addr.encode_raw]) *)
  mutable total : int;
}

(* Room for the stores a run typically makes between two collections.
   Grown from empty instead, the buffer (and the spare a drain used to
   swap in) doubled up over the first collections of every run: 1,020
   of the 1,067 host words of bench's façade mix (2,000 rounds, 9
   minors, about 200 stores per minor). *)
let initial_capacity = 256

let create () =
  { entries = Support.Int_vec.create ~capacity:initial_capacity ();
    total = 0 }

let record t loc =
  Support.Int_vec.push t.entries (Mem.Addr.encode_raw loc);
  t.total <- t.total + 1

let length t = Support.Int_vec.length t.entries

let total_recorded t = t.total

let drain t f env =
  (* the callback may record new entries (the collector re-remembers
     surviving old-to-young edges under aging nurseries): they land
     after the [n] being drained, and move to the front to survive for
     the next collection *)
  let v = t.entries in
  let n = Support.Int_vec.length v in
  for i = 0 to n - 1 do
    f env (Mem.Addr.decode_raw (Support.Int_vec.get v i))
  done;
  let kept = Support.Int_vec.length v - n in
  for i = 0 to kept - 1 do
    Support.Int_vec.set v i (Support.Int_vec.get v (n + i))
  done;
  Support.Int_vec.truncate v kept

let clear t = Support.Int_vec.clear t.entries
