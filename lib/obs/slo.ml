type target = {
  max_pause_us : float option;
  p99_us : float option;
  p999_us : float option;
  min_mmu : float option;
  mmu_window_us : float;
}

let no_target =
  { max_pause_us = None;
    p99_us = None;
    p999_us = None;
    min_mmu = None;
    mmu_window_us = 10_000. }

type breach = {
  rule : string;
  observed_us : float;
  limit_us : float;
  window_us : float;
}

type t = {
  tgt : target;
  on_breach : (breach -> unit) option;
  (* pauses in trace order, three parallel columns *)
  p_start : float Support.Vec.t;
  p_dur : float Support.Vec.t;
  p_kind : string Support.Vec.t;
  (* all pause durations kept sorted (binary-search insert) so the
     per-collection p99/p99.9 checks are an O(log n) read *)
  mutable sorted : float array;
  mutable n_sorted : int;
  mutable span_us : float;
  mutable open_gc : (int * float) option;
  counts : (string, int) Hashtbl.t;
  mutable total : int;
}

let create ?on_breach tgt =
  { tgt;
    on_breach;
    p_start = Support.Vec.create ();
    p_dur = Support.Vec.create ();
    p_kind = Support.Vec.create ();
    sorted = Array.make 64 0.;
    n_sorted = 0;
    span_us = 0.;
    open_gc = None;
    counts = Hashtbl.create 4;
    total = 0 }

let target_of t = t.tgt

(* The tracer serialises timestamps and pause lengths with one decimal
   ("%.1f"); the offline analyzer therefore sees the quantised values.
   Observing the same quantisation is what makes the online statistics
   equal the offline ones exactly, not approximately. *)
let quant v = float_of_string (Printf.sprintf "%.1f" v)

let insert_sorted t v =
  if t.n_sorted = Array.length t.sorted then begin
    let bigger = Array.make (2 * t.n_sorted) 0. in
    Array.blit t.sorted 0 bigger 0 t.n_sorted;
    t.sorted <- bigger
  end;
  (* binary search for the first element > v *)
  let lo = ref 0 and hi = ref t.n_sorted in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.sorted.(mid) <= v then lo := mid + 1 else hi := mid
  done;
  Array.blit t.sorted !lo t.sorted (!lo + 1) (t.n_sorted - !lo);
  t.sorted.(!lo) <- v;
  t.n_sorted <- t.n_sorted + 1

(* Nearest-rank percentile over all pauses so far; must stay the same
   formula as [Profile.percentile_of]. *)
let pct t q =
  if t.n_sorted = 0 then 0.
  else begin
    let rank = int_of_float (Float.ceil (q *. float_of_int t.n_sorted)) in
    t.sorted.(max 0 (min (t.n_sorted - 1) (rank - 1)))
  end

let count_breach t rule =
  t.total <- t.total + 1;
  Hashtbl.replace t.counts rule
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.counts rule))

(* Pause time inside the trailing window [lo, hi): pauses are
   non-overlapping and in start order, so walk backwards and stop at the
   first one entirely before the window. *)
let busy_trailing t ~lo ~hi =
  let busy = ref 0. in
  let i = ref (Support.Vec.length t.p_dur - 1) in
  let stop = ref false in
  while (not !stop) && !i >= 0 do
    let s = Support.Vec.get t.p_start !i in
    let e = s +. Support.Vec.get t.p_dur !i in
    if e <= lo then stop := true
    else begin
      busy := !busy +. Float.max 0. (Float.min e hi -. Float.max s lo);
      decr i
    end
  done;
  !busy

let check t ~dur ~end_us =
  let brs = ref [] in
  let add rule observed_us limit_us window_us =
    count_breach t rule;
    brs := { rule; observed_us; limit_us; window_us } :: !brs
  in
  (match t.tgt.max_pause_us with
   | Some lim when dur > lim -> add "max_pause" dur lim 0.
   | _ -> ());
  (match t.tgt.p99_us with
   | Some lim ->
     let v = pct t 0.99 in
     if v > lim then add "p99" v lim 0.
   | None -> ());
  (match t.tgt.p999_us with
   | Some lim ->
     let v = pct t 0.999 in
     if v > lim then add "p99_9" v lim 0.
   | None -> ());
  (match t.tgt.min_mmu with
   | Some floor_ ->
     let w = t.tgt.mmu_window_us in
     (* only complete trailing windows: the first [w] of the run is
        grace, matching the offline worst-window clamp to [0, span-w] *)
     if w > 0. && end_us >= w then begin
       let busy = busy_trailing t ~lo:(end_us -. w) ~hi:end_us in
       let allowed = (1. -. floor_) *. w in
       if busy > allowed then add "mmu" busy allowed w
     end
   | None -> ());
  List.rev !brs

let observe t ~gc ~t_us e =
  let t_us = quant t_us in
  if t_us > t.span_us then t.span_us <- t_us;
  match e with
  | Event.Gc_begin _ ->
    t.open_gc <- Some (gc, t_us);
    []
  | Event.Gc_end { kind; pause_us; _ } ->
    let dur = quant pause_us in
    let start =
      match t.open_gc with
      | Some (g, t0) when g = gc -> t0
      | _ -> Float.max 0. (t_us -. dur)
    in
    t.open_gc <- None;
    if start +. dur > t.span_us then t.span_us <- start +. dur;
    Support.Vec.push t.p_start start;
    Support.Vec.push t.p_dur dur;
    Support.Vec.push t.p_kind kind;
    insert_sorted t dur;
    check t ~dur ~end_us:(start +. dur)
  | _ -> []

let notify t br =
  match t.on_breach with None -> () | Some f -> f br

(* --- end-of-run reads (exact, shared with Profile) --- *)

let pause_count t = Support.Vec.length t.p_dur
let pause_dur t i = Support.Vec.get t.p_dur i
let pause_kind t i = Support.Vec.get t.p_kind i
let span_us t = t.span_us

let percentile t q = pct t q

let percentiles t =
  let n = pause_count t in
  Profile.kind_percentiles
    ~kinds:(Array.init n (Support.Vec.get t.p_kind))
    (Array.init n (Support.Vec.get t.p_dur))

let mmu t ~window_us =
  let pauses = ref [] in
  for i = pause_count t - 1 downto 0 do
    pauses :=
      (Support.Vec.get t.p_start i, Support.Vec.get t.p_dur i) :: !pauses
  done;
  Profile.mmu_of ~pauses:!pauses ~span_us:t.span_us ~window_us

let breaches t =
  List.sort compare
    (Hashtbl.fold (fun k v rest -> (k, v) :: rest) t.counts [])

let breach_total t = t.total
