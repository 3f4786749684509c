(* Parallel Cheney drain over N logical domains.

   The protocol is Cheng & Blelloch's (PLDI 2001), specialised to the
   raw-word fast paths from cheney.ml: root batches, store-buffer
   locations, remembered objects and card indices arrive as work
   packets; each domain owns a Chase-Lev deque of packets plus a
   private to-space *chunk* carved from the shared [Mem.Space] frontier
   ([Space.alloc_chunk]), so domains never contend on the allocation
   pointer; forwarding installation is a compare-and-swap on the header
   word; idle domains steal packets from the top of a victim's deque.

   Execution is *virtual-time*: this host exposes a single core, and the
   repo's measurement doctrine (lib/harness/simclock.ml) is that
   reported times derive from deterministic work counters, never from
   host wall-clock inside the simulator.  So the N domains here are
   logical workers driven by a discrete-event scheduler: each worker
   has a virtual clock in integer nanoseconds; every step runs one
   turn (scan one object, process one packet, one steal) of the
   lowest-clock runnable worker and charges it the fixed per-operation
   costs below.  The reported drain time is the *makespan* — the
   maximum worker clock — which is exactly the pause a real N-way drain
   with these operation costs would take.  Because turns are atomic,
   the forwarding CAS can never lose a race at runtime; the discipline
   is still exercised (the claim asserts the header is unforwarded at
   install when [Deque.checks] is on) and the heap-shape consequences
   of arbitrary interleavings are explored by seeding the steal-victim
   PRNG (the qcheck double-copy property randomises it).

   parallelism = 1 runs the same packet machinery on one worker and is
   pinned by test_gc.ml to be observationally identical to the
   sequential [Cheney] drain, which stays the oracle.

   [mode = Real] swaps the discrete-event scheduler for true OCaml 5
   domains: a persistent [Domain_pool] runs one lane per worker, the
   deques become genuinely concurrent [Cl_deque]s, to-space chunks are
   carved with [Space.alloc_chunk_atomic]'s CAS frontier, and the
   forwarding claim becomes a real critical section (OCaml exposes no
   atomic operations on int-array cells, so the install is a striped
   mutex over the source offset — see [fwd_locks]).  The packet set,
   the chunk discipline and the counters are shared between the two
   engines, so the virtual scheduler remains the determinism oracle
   for the real one: the equivalence tests pin a Real drain's heap and
   placement-independent counters against both the sequential Cheney
   drain and the Virtual run. *)

type packet =
  | Roots of Rstack.Root.t array
  | Locs of Mem.Addr.t array
  | Visit_objs of Mem.Addr.t array
      (* remset / pretenured-region objects: fields rewritten, but the
         walk is not part of the drain's [words_scanned], matching the
         sequential accounting *)
  | Scan_objs of Mem.Addr.t array
      (* grey large objects: scanned and counted, like the sequential
         [gray_large] queue *)
  | Cards of int array
  | Range of { base : int; words : int }
      (* unscanned tail of a retired chunk, as offsets into to-space *)

(* Fixed virtual operation costs, in nanoseconds.  The ratios follow the
   harness's Simclock constants (copy ≈ 2.5x a scanned word) with
   coordination costs — packet pop, steal, chunk grab — priced as a
   handful of cache misses each. *)
let cost_copy_word = 10
let cost_scan_word = 4
let cost_root = 8
let cost_loc = 12
let cost_card = 40
let cost_packet = 15
let cost_steal = 60
let cost_chunk = 50

let default_chunk_words = 256
let default_batch = 32
let max_workers = 16

type mode = Virtual | Real

(* Forwarding installation in Real mode.  OCaml has no compare-and-swap
   on int-array cells, so the claim is a short critical section under a
   mutex striped by the *source* offset: contenders for one object
   always hash to the same stripe, while unrelated objects almost never
   share one.  The blit itself runs outside the lock (optimistic copy);
   a loser rolls its private bump pointer back, so only the winner's
   copy survives.  64 stripes keeps the false-sharing probability of
   two simultaneous copies below 2% at p = 16. *)
let fwd_locks = Array.init 64 (fun _ -> Mutex.create ())

let fwd_lock_for soff = fwd_locks.(soff land 63)

type worker = {
  id : int;
  deque : packet Deque.t;
  rdeque : packet Cl_deque.t;   (* Real-mode twin of [deque] *)
  prng_r : Support.Prng.t;      (* Real mode steals per-worker (no shared
                                   scheduler to serialise a shared PRNG) *)
  (* Real mode defers object-hook callbacks (profiler / census updates
     are not domain-safe); (site, words, first-copy) triples replayed on
     the caller after the barrier — scalars, so deferring stays
     allocation-light *)
  deferred : (int * int * bool) Support.Vec.t;
  (* private copy chunk, as offsets into the to-space cell array;
     [c_base = -1] means no chunk is held *)
  mutable c_base : int;
  mutable c_scan : int;   (* local grey: [c_scan, c_alloc) awaits scanning *)
  mutable c_alloc : int;
  mutable c_limit : int;
  mutable copied : int;
  mutable scanned : int;
  mutable packets : int;
  mutable steals : int;
  mutable clock : int;    (* virtual ns consumed by this worker *)
  mutable idle : bool;
  mutable eager_depth : int;   (* hierarchical-evacuation recursion depth *)
  mutable eager_budget : int;  (* words left under the current eager root *)
  sites : (int, int * int * int) Hashtbl.t option;
}

type t = {
  mem : Mem.Memory.t;
  in_from : Mem.Addr.t -> bool;
  to_space : Mem.Space.t;
  to_cells : int array;
  to_base : Mem.Addr.t;
  to_base_off : int;
  los : Los.t option;
  trace_los : bool;
  promoting : bool;
  eager : bool;
  object_hooks : Hooks.object_hooks option;
  card_scan : ((Mem.Addr.t -> unit) -> int -> unit) option;
  mode : mode;
  los_mu : Mutex.t;   (* serialises [Los.mark]'s test-and-set in Real mode *)
  chunk_words : int;
  batch : int;
  prng : Support.Prng.t;
  workers : worker array;
  staged : packet Support.Vec.t;
  pend_locs : Mem.Addr.t Support.Vec.t;
  pend_objs : Mem.Addr.t Support.Vec.t;
  pend_cards : int Support.Vec.t;
  mutable running : bool;
  mutable ran : bool;
}

let create ~mem ~in_from ~to_space ~los ~trace_los ~promoting ?(eager = false)
    ?site_tallies ~object_hooks ?card_scan ~parallelism ?(mode = Virtual)
    ?(chunk_words = default_chunk_words)
    ?(batch = default_batch) ?(seed = 0x9e3779) () =
  if parallelism < 1 || parallelism > max_workers then
    invalid_arg "Par_drain.create: parallelism out of range";
  if chunk_words < 2 * (Mem.Header.header_words ()) then
    invalid_arg "Par_drain.create: chunk too small";
  if batch < 1 then invalid_arg "Par_drain.create: empty batch";
  let tracing =
    match site_tallies with
    | Some b -> b
    | None -> Obs.Trace.detailed ()
  in
  let to_base = Mem.Space.base to_space in
  { mem;
    in_from;
    to_space;
    to_cells = Mem.Memory.cells mem to_base;
    to_base;
    to_base_off = Mem.Addr.offset to_base;
    los;
    trace_los;
    promoting;
    eager;
    object_hooks;
    card_scan;
    mode;
    los_mu = Mutex.create ();
    chunk_words;
    batch;
    prng = Support.Prng.create ~seed;
    workers =
      Array.init parallelism (fun id ->
        { id;
          deque = Deque.create ~owner:id;
          rdeque = Cl_deque.create ();
          prng_r = Support.Prng.create ~seed:(seed + id);
          deferred = Support.Vec.create ();
          c_base = -1;
          c_scan = 0;
          c_alloc = 0;
          c_limit = 0;
          copied = 0;
          scanned = 0;
          packets = 0;
          steals = 0;
          clock = 0;
          idle = false;
          eager_depth = 0;
          eager_budget = 0;
          sites = (if tracing then Some (Hashtbl.create 32) else None) });
    staged = Support.Vec.create ();
    pend_locs = Support.Vec.create ();
    pend_objs = Support.Vec.create ();
    pend_cards = Support.Vec.create ();
    running = false;
    ran = false }

let addr_of t doff = Mem.Addr.unsafe_add t.to_base (doff - t.to_base_off)

(* [publish] is the owner-side deque push; during the drain it also wakes
   idle workers, modelling thieves that spin on the victims' bottoms.  A
   woken thief cannot act before the publisher's present, so its clock
   jumps forward to the publication instant. *)
let publish t w p =
  Deque.push w.deque ~self:w.id p;
  if t.running then
    Array.iter
      (fun v ->
        if v.idle then begin
          v.idle <- false;
          if v.clock < w.clock then v.clock <- w.clock
        end)
      t.workers

(* --- private copy chunks --- *)

(* Hand the unscanned tail of the chunk to the deque (stealable grey
   work) and pad the unused tail with a filler so the to-space stays
   linearly walkable.  [Space.alloc_chunk]'s grant rule plus the fit
   check in [alloc_copy] guarantee the unused tail is 0 or >= 3 words. *)
let retire_chunk t w =
  if w.c_base >= 0 then begin
    if w.c_scan < w.c_alloc then begin
      publish t w (Range { base = w.c_scan; words = w.c_alloc - w.c_scan });
      w.c_scan <- w.c_alloc
    end;
    if w.c_alloc < w.c_limit then
      Mem.Header.write_filler_c t.to_cells ~off:w.c_alloc
        ~words:(w.c_limit - w.c_alloc);
    w.c_base <- -1
  end

(* the to-space cannot take another chunk: out of a promoting drain the
   live data has outgrown the budget; anywhere else the collector sized
   the to-space wrong *)
let overflow t =
  if t.promoting then
    raise (Budget.Exhausted "promotion overflows the tenured space")
  else failwith "Par_drain: to-space overflow (collector sizing bug)"

let grab_chunk t w ~min_words =
  w.clock <- w.clock + cost_chunk;
  let pref = max t.chunk_words (min_words + (Mem.Header.header_words ())) in
  match Mem.Space.alloc_chunk t.to_space ~min_words ~pref_words:pref with
  | None -> overflow t
  | Some (a, grant) ->
    let off = Mem.Addr.offset a in
    w.c_base <- off;
    w.c_scan <- off;
    w.c_alloc <- off;
    w.c_limit <- off + grant

let alloc_copy t w words =
  let fits =
    w.c_base >= 0
    &&
    let rem = w.c_limit - (w.c_alloc + words) in
    rem = 0 || rem >= (Mem.Header.header_words ())
  in
  if not fits then begin
    retire_chunk t w;
    grab_chunk t w ~min_words:words
  end;
  let off = w.c_alloc in
  w.c_alloc <- off + words;
  off

(* --- evacuation --- *)

let note_site_copy w ~site ~first ~words =
  match w.sites with
  | None -> ()
  | Some tab ->
    let objects, firsts, ws =
      match Hashtbl.find_opt tab site with
      | Some p -> p
      | None -> (0, 0, 0)
    in
    Hashtbl.replace tab site
      (objects + 1, (if first then firsts + 1 else firsts), ws + words)

(* Hierarchical (eager-child) evacuation bounds, matching the Cheney
   engine: each top-level copy may pull at most [eager_words_bound]
   words of descendants behind it, never deeper than
   [eager_depth_bound] (docs/LAYOUT.md). *)
let eager_depth_bound = 4
let eager_words_bound = 64

let rec copy_object t w src soff =
  (* claim = the forwarding CAS: under the virtual-time scheduler the
     check-and-install below is one atomic turn, so it cannot lose a
     race; the assertion keeps a broken claim discipline loud *)
  if !Deque.checks && Mem.Header.is_forwarded_c src ~off:soff then
    invalid_arg "Par_drain: forwarding CAS lost (object about to double-copy)";
  let words = Mem.Header.object_words_c src ~off:soff in
  let doff = alloc_copy t w words in
  let first_copy = not (Mem.Header.survivor_c src ~off:soff) in
  (match t.object_hooks with
   | None -> ()
   | Some h ->
     let site = Mem.Header.site_c src ~off:soff in
     h.Hooks.on_copy ~site ~words;
     if first_copy then h.Hooks.on_first_survival ~site ~words);
  Array.blit src soff t.to_cells doff words;
  Mem.Header.set_survivor_c t.to_cells ~off:doff;
  if w.sites <> None then
    note_site_copy w
      ~site:(Mem.Header.site_c src ~off:soff)
      ~first:first_copy ~words;
  let dst = addr_of t doff in
  Mem.Header.set_forward_c src ~off:soff ~target:dst;
  w.copied <- w.copied + words;
  w.clock <- w.clock + (words * cost_copy_word);
  if t.eager && w.eager_depth < eager_depth_bound then begin
    if w.eager_depth = 0 then w.eager_budget <- eager_words_bound;
    if w.eager_budget > 0 then begin
      w.eager_depth <- w.eager_depth + 1;
      eager_children t w doff;
      w.eager_depth <- w.eager_depth - 1
    end
  end;
  dst

(* Placement only: copy the not-yet-forwarded children of the fresh copy
   at [doff] right behind it (depth-first, bounded).  Fields are NOT
   rewritten here — the normal chunk scan finds the children already
   forwarded and just installs the pointers. *)
and eager_children t w doff =
  let cells = t.to_cells in
  let tag = Mem.Header.tag_c cells ~off:doff in
  if tag <> Mem.Header.tag_nonptr_array then begin
    let len = Mem.Header.len_c cells ~off:doff in
    let masked = tag = Mem.Header.tag_record in
    let mask = if masked then Mem.Header.mask_c cells ~off:doff else 0 in
    let fbase = doff + (Mem.Header.header_words ()) in
    let i = ref 0 in
    while !i < len && w.eager_budget > 0 do
      (if (not masked) || mask land (1 lsl !i) <> 0 then begin
         let word = cells.(fbase + !i) in
         if not (Mem.Value.encoded_is_int word)
            && word <> Mem.Value.encoded_null
         then begin
           let a = Mem.Value.encoded_to_addr word in
           if t.in_from a then begin
             let src = Mem.Memory.cells t.mem a in
             let soff = Mem.Addr.offset a in
             if not (Mem.Header.is_forwarded_c src ~off:soff) then begin
               w.eager_budget <-
                 w.eager_budget - Mem.Header.object_words_c src ~off:soff;
               ignore (copy_object t w src soff)
             end
           end
         end
       end);
      incr i
    done
  end

let evacuate t w word =
  if Mem.Value.encoded_is_int word || word = Mem.Value.encoded_null then word
  else begin
    let a = Mem.Value.encoded_to_addr word in
    if t.in_from a then begin
      let src = Mem.Memory.cells t.mem a in
      let soff = Mem.Addr.offset a in
      if Mem.Header.is_forwarded_c src ~off:soff then
        Mem.Value.encode_addr (Mem.Header.forward_target_c src ~off:soff)
      else Mem.Value.encode_addr (copy_object t w src soff)
    end
    else begin
      (match t.los with
       | Some los when t.trace_los && Los.contains los a ->
         if Los.mark los a then publish t w (Scan_objs [| a |])
       | Some _ | None -> ());
      word
    end
  end

(* rewrite the pointer fields of the object at [cells]/[off]; returns its
   footprint *)
let scan_fields t w cells off =
  let tag = Mem.Header.tag_c cells ~off in
  let len = Mem.Header.len_c cells ~off in
  (if tag <> Mem.Header.tag_nonptr_array then begin
     let visit foff =
       let word = cells.(foff) in
       let word' = evacuate t w word in
       if word' <> word then cells.(foff) <- word'
     in
     let fbase = off + (Mem.Header.header_words ()) in
     if tag = Mem.Header.tag_ptr_array then
       for i = 0 to len - 1 do
         visit (fbase + i)
       done
     else begin
       let mask = Mem.Header.mask_c cells ~off in
       for i = 0 to len - 1 do
         if mask land (1 lsl i) <> 0 then visit (fbase + i)
       done
     end
   end);
  let words = (Mem.Header.header_words ()) + len in
  w.clock <- w.clock + (words * cost_scan_word);
  words

let scan_obj t w a ~count =
  let cells = Mem.Memory.cells t.mem a in
  let words = scan_fields t w cells (Mem.Addr.offset a) in
  if count then w.scanned <- w.scanned + words

let visit_loc t w loc =
  w.clock <- w.clock + cost_loc;
  let cells = Mem.Memory.cells t.mem loc in
  let off = Mem.Addr.offset loc in
  let word = cells.(off) in
  let word' = evacuate t w word in
  if word' <> word then cells.(off) <- word'

let visit_root t w root =
  w.clock <- w.clock + cost_root;
  let v = Rstack.Root.get root in
  match v with
  | Mem.Value.Int _ -> ()
  | Mem.Value.Ptr a ->
    if not (Mem.Addr.is_null a) then begin
      let word' = evacuate t w (Mem.Value.encode v) in
      let v' = Mem.Value.Ptr (Mem.Value.encoded_to_addr word') in
      if not (Mem.Value.equal v v') then Rstack.Root.set root v'
    end

let process_packet t w p =
  w.packets <- w.packets + 1;
  w.clock <- w.clock + cost_packet;
  match p with
  | Roots arr -> Array.iter (visit_root t w) arr
  | Locs arr -> Array.iter (visit_loc t w) arr
  | Visit_objs arr -> Array.iter (fun a -> scan_obj t w a ~count:false) arr
  | Scan_objs arr -> Array.iter (fun a -> scan_obj t w a ~count:true) arr
  | Cards arr ->
    (match t.card_scan with
     | None -> invalid_arg "Par_drain: card packet without a card scanner"
     | Some scan ->
       Array.iter
         (fun card ->
           w.clock <- w.clock + cost_card;
           scan (visit_loc t w) card)
         arr)
  | Range { base; words } ->
    let limit = base + words in
    let off = ref base in
    while !off < limit do
      let ws = Mem.Header.object_words_c t.to_cells ~off:!off in
      ignore (scan_fields t w t.to_cells !off : int);
      w.scanned <- w.scanned + ws;
      off := !off + ws
    done

(* one object off the worker's local grey region.  The scan cursor moves
   past the object *before* its fields are visited: an evacuation during
   the visit may retire this very chunk, and the Range packet it
   publishes must not cover the in-flight object again. *)
let scan_local_step t w =
  let off = w.c_scan in
  let ws = Mem.Header.object_words_c t.to_cells ~off in
  w.c_scan <- off + ws;
  ignore (scan_fields t w t.to_cells off : int);
  w.scanned <- w.scanned + ws

let try_steal t w =
  let n = Array.length t.workers in
  if n = 1 then None
  else begin
    (* seeded victim rotation: deterministic for a fixed seed, and the
       qcheck schedule-randomisation varies the seed *)
    let r = Support.Prng.int t.prng (n - 1) in
    let found = ref None in
    (try
       for k = 0 to n - 2 do
         let d = 1 + ((r + k) mod (n - 1)) in
         let v = t.workers.((w.id + d) mod n) in
         match Deque.steal v.deque ~self:w.id with
         | Some p ->
           found := Some p;
           raise Exit
         | None -> ()
       done
     with Exit -> ());
    !found
  end

let step t w =
  if w.c_base >= 0 && w.c_scan < w.c_alloc then scan_local_step t w
  else
    match Deque.pop w.deque ~self:w.id with
    | Some p -> process_packet t w p
    | None ->
      (match try_steal t w with
       | Some p ->
         w.steals <- w.steals + 1;
         w.clock <- w.clock + cost_steal;
         process_packet t w p
       | None -> w.idle <- true)

(* --- the Real engine ---

   The same packet machinery, run by true domains.  The functions below
   mirror their virtual twins with four systematic differences: no
   virtual-clock charges (wall time is measured around the whole
   worker), [Cl_deque] instead of [Deque], [Space.alloc_chunk_atomic]
   instead of [alloc_chunk], and the forwarding claim as a real
   critical section instead of an atomic turn. *)

let retire_chunk_r t w =
  if w.c_base >= 0 then begin
    if w.c_scan < w.c_alloc then begin
      Cl_deque.push w.rdeque (Range { base = w.c_scan; words = w.c_alloc - w.c_scan });
      w.c_scan <- w.c_alloc
    end;
    if w.c_alloc < w.c_limit then
      Mem.Header.write_filler_c t.to_cells ~off:w.c_alloc
        ~words:(w.c_limit - w.c_alloc);
    w.c_base <- -1
  end

let grab_chunk_r t w ~min_words =
  let pref = max t.chunk_words (min_words + (Mem.Header.header_words ())) in
  match Mem.Space.alloc_chunk_atomic t.to_space ~min_words ~pref_words:pref with
  | None -> overflow t
  | Some (a, grant) ->
    let off = Mem.Addr.offset a in
    w.c_base <- off;
    w.c_scan <- off;
    w.c_alloc <- off;
    w.c_limit <- off + grant

let alloc_copy_r t w words =
  let fits =
    w.c_base >= 0
    &&
    let rem = w.c_limit - (w.c_alloc + words) in
    rem = 0 || rem >= (Mem.Header.header_words ())
  in
  if not fits then begin
    retire_chunk_r t w;
    grab_chunk_r t w ~min_words:words
  end;
  let off = w.c_alloc in
  w.c_alloc <- off + words;
  off

(* The claim.  The blit runs optimistically outside the lock; the
   install is check-then-set under the source's stripe.  A loser rolls
   the private bump pointer back ([w.c_alloc <- doff]), abandoning its
   copy — the final filler over [c_alloc, c_limit) covers the garbage.
   The winner's pre-lock blit is pristine: forwarding headers are only
   ever written under the stripe lock, and the winner observed the
   object unforwarded after acquiring it, so no writer touched the
   source during the blit. *)
let rec copy_object_r t w src soff =
  let words = Mem.Header.object_words_c src ~off:soff in
  let doff = alloc_copy_r t w words in
  Array.blit src soff t.to_cells doff words;
  let lk = fwd_lock_for soff in
  Mutex.lock lk;
  if Mem.Header.is_forwarded_c src ~off:soff then begin
    let dst = Mem.Header.forward_target_c src ~off:soff in
    Mutex.unlock lk;
    w.c_alloc <- doff;
    dst
  end
  else begin
    let dst = addr_of t doff in
    Mem.Header.set_forward_c src ~off:soff ~target:dst;
    Mutex.unlock lk;
    (* winner-only bookkeeping, off the private pristine copy (the
       source header now holds the forwarding pointer) *)
    let first_copy = not (Mem.Header.survivor_c t.to_cells ~off:doff) in
    (match t.object_hooks with
     | None -> ()
     | Some _ ->
       Support.Vec.push w.deferred
         (Mem.Header.site_c t.to_cells ~off:doff, words, first_copy));
    Mem.Header.set_survivor_c t.to_cells ~off:doff;
    if w.sites <> None then
      note_site_copy w
        ~site:(Mem.Header.site_c t.to_cells ~off:doff)
        ~first:first_copy ~words;
    w.copied <- w.copied + words;
    (* winner-only eager evacuation: losers abandoned their copy, so
       only the winner pulls children behind the installed one *)
    if t.eager && w.eager_depth < eager_depth_bound then begin
      if w.eager_depth = 0 then w.eager_budget <- eager_words_bound;
      if w.eager_budget > 0 then begin
        w.eager_depth <- w.eager_depth + 1;
        eager_children_r t w doff;
        w.eager_depth <- w.eager_depth - 1
      end
    end;
    dst
  end

(* Real-domain twin of [eager_children].  The unforwarded check on the
   child is racy — another domain may claim it first — but that is
   fine: [copy_object_r]'s check-then-set under the stripe lock makes
   the loser roll back, exactly as on the normal evacuation path. *)
and eager_children_r t w doff =
  let cells = t.to_cells in
  let tag = Mem.Header.tag_c cells ~off:doff in
  if tag <> Mem.Header.tag_nonptr_array then begin
    let len = Mem.Header.len_c cells ~off:doff in
    let masked = tag = Mem.Header.tag_record in
    let mask = if masked then Mem.Header.mask_c cells ~off:doff else 0 in
    let fbase = doff + (Mem.Header.header_words ()) in
    let i = ref 0 in
    while !i < len && w.eager_budget > 0 do
      (if (not masked) || mask land (1 lsl !i) <> 0 then begin
         let word = cells.(fbase + !i) in
         if not (Mem.Value.encoded_is_int word)
            && word <> Mem.Value.encoded_null
         then begin
           let a = Mem.Value.encoded_to_addr word in
           if t.in_from a then begin
             let src = Mem.Memory.cells t.mem a in
             let soff = Mem.Addr.offset a in
             if not (Mem.Header.is_forwarded_c src ~off:soff) then begin
               w.eager_budget <-
                 w.eager_budget - Mem.Header.object_words_c src ~off:soff;
               ignore (copy_object_r t w src soff)
             end
           end
         end
       end);
      incr i
    done
  end

let evacuate_r t w word =
  if Mem.Value.encoded_is_int word || word = Mem.Value.encoded_null then word
  else begin
    let a = Mem.Value.encoded_to_addr word in
    if t.in_from a then begin
      let src = Mem.Memory.cells t.mem a in
      let soff = Mem.Addr.offset a in
      if Mem.Header.is_forwarded_c src ~off:soff then begin
        (* the racy tag read above may run ahead of the target-word
           store; re-read under the stripe for the happens-before edge *)
        let lk = fwd_lock_for soff in
        Mutex.lock lk;
        let dst = Mem.Header.forward_target_c src ~off:soff in
        Mutex.unlock lk;
        Mem.Value.encode_addr dst
      end
      else Mem.Value.encode_addr (copy_object_r t w src soff)
    end
    else begin
      (match t.los with
       | Some los when t.trace_los && Los.contains los a ->
         (* [contains] is a read-only lookup (no inserts during a
            drain); [mark]'s test-and-set must be exclusive or a
            double-mark would double-scan the object *)
         let fresh =
           Mutex.lock t.los_mu;
           let f = Los.mark los a in
           Mutex.unlock t.los_mu;
           f
         in
         if fresh then Cl_deque.push w.rdeque (Scan_objs [| a |])
       | Some _ | None -> ());
      word
    end
  end

let scan_fields_r t w cells off =
  let tag = Mem.Header.tag_c cells ~off in
  let len = Mem.Header.len_c cells ~off in
  (if tag <> Mem.Header.tag_nonptr_array then begin
     let visit foff =
       let word = cells.(foff) in
       let word' = evacuate_r t w word in
       if word' <> word then cells.(foff) <- word'
     in
     let fbase = off + (Mem.Header.header_words ()) in
     if tag = Mem.Header.tag_ptr_array then
       for i = 0 to len - 1 do
         visit (fbase + i)
       done
     else begin
       let mask = Mem.Header.mask_c cells ~off in
       for i = 0 to len - 1 do
         if mask land (1 lsl i) <> 0 then visit (fbase + i)
       done
     end
   end);
  (Mem.Header.header_words ()) + len

let scan_obj_r t w a ~count =
  let cells = Mem.Memory.cells t.mem a in
  let words = scan_fields_r t w cells (Mem.Addr.offset a) in
  if count then w.scanned <- w.scanned + words

(* Store-buffer duplicates mean two workers may visit one location
   concurrently; both compute the same forwarded word and plain int
   stores do not tear, so the race is benign. *)
let visit_loc_r t w loc =
  let cells = Mem.Memory.cells t.mem loc in
  let off = Mem.Addr.offset loc in
  let word = cells.(off) in
  let word' = evacuate_r t w word in
  if word' <> word then cells.(off) <- word'

let visit_root_r t w root =
  let v = Rstack.Root.get root in
  match v with
  | Mem.Value.Int _ -> ()
  | Mem.Value.Ptr a ->
    if not (Mem.Addr.is_null a) then begin
      let word' = evacuate_r t w (Mem.Value.encode v) in
      let v' = Mem.Value.Ptr (Mem.Value.encoded_to_addr word') in
      if not (Mem.Value.equal v v') then Rstack.Root.set root v'
    end

let process_packet_r t w p =
  w.packets <- w.packets + 1;
  match p with
  | Roots arr -> Array.iter (visit_root_r t w) arr
  | Locs arr -> Array.iter (visit_loc_r t w) arr
  | Visit_objs arr -> Array.iter (fun a -> scan_obj_r t w a ~count:false) arr
  | Scan_objs arr -> Array.iter (fun a -> scan_obj_r t w a ~count:true) arr
  | Cards arr ->
    (match t.card_scan with
     | None -> invalid_arg "Par_drain: card packet without a card scanner"
     | Some scan -> Array.iter (fun card -> scan (visit_loc_r t w) card) arr)
  | Range { base; words } ->
    let limit = base + words in
    let off = ref base in
    while !off < limit do
      let ws = Mem.Header.object_words_c t.to_cells ~off:!off in
      ignore (scan_fields_r t w t.to_cells !off : int);
      w.scanned <- w.scanned + ws;
      off := !off + ws
    done

let scan_local_step_r t w =
  let off = w.c_scan in
  let ws = Mem.Header.object_words_c t.to_cells ~off in
  w.c_scan <- off + ws;
  ignore (scan_fields_r t w t.to_cells off : int);
  w.scanned <- w.scanned + ws

let try_steal_r t w =
  let n = Array.length t.workers in
  if n = 1 then None
  else begin
    let r = Support.Prng.int w.prng_r (n - 1) in
    let found = ref None in
    (try
       for k = 0 to n - 2 do
         let d = 1 + ((r + k) mod (n - 1)) in
         let v = t.workers.((w.id + d) mod n) in
         match Cl_deque.steal v.rdeque with
         | Some p ->
           found := Some p;
           raise Exit
         | None -> ()
       done
     with Exit -> ());
    !found
  end

(* Distributed termination: an out-of-work worker checks in on [idlers]
   and spins; when all [n] are simultaneously idle the fixpoint is
   proven — an idle worker's deque is empty (only the owner pushes, and
   only while active) and its grey region is exhausted (a precondition
   of going idle) — and the first observer latches [finished].  A
   spinner that glimpses a non-empty victim deque checks back out and
   rejoins the drain.  On hosts with fewer cores than lanes a pure
   cpu_relax spin would burn whole scheduler timeslices per handoff, so
   after a bounded spin the waiter parks in a microsleep. *)
let worker_real t w ~idlers ~finished =
  let t0 = Support.Units.now_ns () in
  let n = Array.length t.workers in
  let work_visible () =
    let found = ref false in
    Array.iter
      (fun v -> if v != w && not (Cl_deque.is_empty v.rdeque) then found := true)
      t.workers;
    !found
  in
  let rec work () =
    if w.c_base >= 0 && w.c_scan < w.c_alloc then begin
      scan_local_step_r t w;
      work ()
    end
    else
      match Cl_deque.pop w.rdeque with
      | Some p ->
        process_packet_r t w p;
        work ()
      | None ->
        (match try_steal_r t w with
         | Some p ->
           w.steals <- w.steals + 1;
           process_packet_r t w p;
           work ()
         | None ->
           Atomic.incr idlers;
           wait 0)
  and wait spins =
    if Atomic.get finished then Atomic.decr idlers
    else if Atomic.get idlers = n then begin
      Atomic.set finished true;
      Atomic.decr idlers
    end
    else if work_visible () then begin
      Atomic.decr idlers;
      work ()
    end
    else if spins < 100 then begin
      Domain.cpu_relax ();
      wait (spins + 1)
    end
    else begin
      Unix.sleepf 50e-6;
      wait 0
    end
  in
  work ();
  (* per-worker wall time: [makespan_ns] and the collectors' [copy.dN]
     spans read [clock], so Real drains report genuine nanoseconds *)
  w.clock <- Support.Units.now_ns () - t0

let run_real t =
  let n = Array.length t.workers in
  (* deal before the pool starts: single-domain plain pushes, published
     to the workers by the pool monitor's happens-before edge *)
  let k = ref 0 in
  Support.Vec.iter
    (fun p ->
      let w = t.workers.(!k mod n) in
      incr k;
      Cl_deque.push w.rdeque p)
    t.staged;
  Support.Vec.clear t.staged;
  Mem.Space.par_begin t.to_space;
  let idlers = Atomic.make 0 in
  let finished = Atomic.make false in
  Domain_pool.run (Domain_pool.get ()) ~lanes:n (fun lane ->
      worker_real t t.workers.(lane) ~idlers ~finished);
  Array.iter
    (fun w ->
      assert (w.c_base < 0 || w.c_scan = w.c_alloc);
      retire_chunk_r t w)
    t.workers;
  Mem.Space.par_end t.to_space;
  (* replay the deferred hook events on the calling domain; the
     profiler and census only ever sum, so worker order is immaterial *)
  match t.object_hooks with
  | None -> ()
  | Some h ->
    Array.iter
      (fun w ->
        Support.Vec.iter
          (fun (site, words, first) ->
            h.Hooks.on_copy ~site ~words;
            if first then h.Hooks.on_first_survival ~site ~words)
          w.deferred;
        Support.Vec.clear w.deferred)
      t.workers

(* --- staging (before [run]) --- *)

let check_staging t name = if t.ran then invalid_arg ("Par_drain." ^ name ^ ": already run")

let stage t p = Support.Vec.push t.staged p

let flush_pending (type a) t (vec : a Support.Vec.t) (mk : a array -> packet) =
  let n = Support.Vec.length vec in
  let off = ref 0 in
  while !off < n do
    let len = min t.batch (n - !off) in
    let arr = Array.init len (fun i -> Support.Vec.get vec (!off + i)) in
    stage t (mk arr);
    off := !off + len
  done;
  Support.Vec.clear vec

let add_roots t arr =
  check_staging t "add_roots";
  if Array.length arr > 0 then stage t (Roots arr)

let add_loc t loc =
  check_staging t "add_loc";
  Support.Vec.push t.pend_locs loc;
  if Support.Vec.length t.pend_locs = t.batch then
    flush_pending t t.pend_locs (fun a -> Locs a)

let add_obj t a =
  check_staging t "add_obj";
  Support.Vec.push t.pend_objs a;
  if Support.Vec.length t.pend_objs = t.batch then
    flush_pending t t.pend_objs (fun a -> Visit_objs a)

let add_card t card =
  check_staging t "add_card";
  Support.Vec.push t.pend_cards card;
  if Support.Vec.length t.pend_cards = t.batch then
    flush_pending t t.pend_cards (fun a -> Cards a)

(* --- the drain --- *)

let run_virtual t =
  (* deal the staged packets round-robin; this is the initial partition,
     load balance from here on is the thieves' business *)
  let n = Array.length t.workers in
  let k = ref 0 in
  Support.Vec.iter
    (fun p ->
      let w = t.workers.(!k mod n) in
      incr k;
      Deque.push w.deque ~self:w.id p)
    t.staged;
  Support.Vec.clear t.staged;
  t.running <- true;
  let continue_ = ref true in
  while !continue_ do
    (* next turn: the runnable worker with the lowest virtual clock *)
    let next = ref None in
    Array.iter
      (fun w ->
        if not w.idle then
          match !next with
          | Some b when b.clock <= w.clock -> ()
          | _ -> next := Some w)
      t.workers;
    match !next with
    | None -> continue_ := false
    | Some w -> step t w
  done;
  t.running <- false;
  (* all grey exhausted; pad the final chunks *)
  Array.iter
    (fun w ->
      assert (w.c_base < 0 || w.c_scan = w.c_alloc);
      retire_chunk t w)
    t.workers

let run t =
  check_staging t "run";
  t.ran <- true;
  flush_pending t t.pend_locs (fun a -> Locs a);
  flush_pending t t.pend_objs (fun a -> Visit_objs a);
  flush_pending t t.pend_cards (fun a -> Cards a);
  match t.mode with
  | Virtual -> run_virtual t
  | Real -> run_real t

(* --- results --- *)

let sum f t = Array.fold_left (fun acc w -> acc + f w) 0 t.workers

let words_copied t = sum (fun w -> w.copied) t

(* no aging under the parallel drain: every copy is a promotion, exactly
   as the sequential engine counts it *)
let words_promoted = words_copied

let words_scanned t = sum (fun w -> w.scanned) t

let steals t = sum (fun w -> w.steals) t

let per_worker_scanned t = Array.map (fun w -> w.scanned) t.workers

let makespan_ns t = Array.fold_left (fun m w -> max m w.clock) 0 t.workers

type worker_report = {
  w_id : int;
  w_copied : int;
  w_scanned : int;
  w_packets : int;
  w_steals : int;
  w_cost_ns : int;
}

let report t =
  Array.map
    (fun w ->
      { w_id = w.id;
        w_copied = w.copied;
        w_scanned = w.scanned;
        w_packets = w.packets;
        w_steals = w.steals;
        w_cost_ns = w.clock })
    t.workers

let site_survivals t =
  let merged = Hashtbl.create 32 in
  Array.iter
    (fun w ->
      match w.sites with
      | None -> ()
      | Some tab ->
        Hashtbl.iter
          (fun site (objects, firsts, words) ->
            let o, f, ws =
              match Hashtbl.find_opt merged site with
              | Some p -> p
              | None -> (0, 0, 0)
            in
            Hashtbl.replace merged site (o + objects, f + firsts, ws + words))
          tab)
    t.workers;
  List.sort compare
    (Hashtbl.fold
       (fun site (objects, firsts, words) acc ->
         (site, objects, firsts, words) :: acc)
       merged [])

(* worst-case to-space slop of a parallel drain on top of the live data:
   one partly-used chunk per worker, plus a filler tail per retire — and
   each retire is triggered by an object that lands in the next chunk, so
   the cumulative tails are bounded by the copied words themselves.
   Collectors add this to their sequential to-space sizing. *)
let space_headroom ?(chunk_words = default_chunk_words) ~parallelism
    ~copy_bound () =
  copy_bound + (parallelism * (chunk_words + (2 * (Mem.Header.header_words ()))))
