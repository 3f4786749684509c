(* Parallel Cheney drain over N domains: one packet engine, two
   schedulers.

   The protocol is Cheng & Blelloch's (PLDI 2001), specialised to the
   raw-word fast paths from cheney.ml: root batches, store-buffer
   locations, remembered objects and card indices arrive as work
   packets; each domain owns a Chase-Lev deque of packets plus a
   private to-space *chunk* carved from the shared [Mem.Space] frontier
   ([Space.alloc_chunk_atomic]), so domains never contend on the
   allocation pointer; forwarding installation is a check-then-install
   claim on the header word after an optimistic copy; idle domains
   steal packets from the top of a victim's deque.  Object hooks are
   deferred and replayed on the calling domain after the drain.

   The engine is written once; [step] runs one turn of one worker (scan
   one object, process one packet, or one steal) and reports whether it
   found work.  Two schedulers drive it:

   - [Virtual] (the default) is *virtual-time*: the repo's measurement
     doctrine (lib/harness/simclock.ml) is that reported times derive
     from deterministic work counters, never from host wall-clock inside
     the simulator.  So the N domains are logical workers driven by a
     discrete-event scheduler on the calling domain: each worker has a
     virtual clock in integer nanoseconds, every turn goes to the
     lowest-clock runnable worker, and turns charge the fixed
     per-operation costs below.  The reported drain time is the
     *makespan* — the maximum worker clock — which is exactly the pause
     a real N-way drain with these operation costs would take.  Because
     turns are atomic the forwarding claim can never lose a race; the
     discipline is still exercised (a lost claim raises when
     [Deque.checks] is on, as do the [Deque] owner rules) and the
     heap-shape consequences of arbitrary interleavings are explored by
     seeding the steal-victim PRNG (the qcheck double-copy property
     randomises it).

   - [Real] runs one true OCaml 5 domain per worker from the persistent
     [Domain_pool]: the deques are concurrent [Cl_deque]s, the claim is
     a real critical section (OCaml exposes no atomic operations on
     int-array cells, so the install is a striped mutex over the source
     offset — see [fwd_locks]), and each worker's clock is overwritten
     with its wall time at the end.

   The modes differ only in those primitives (deque, claim locking,
   victim PRNG, and whether [publish] wakes idle workers), so the
   virtual scheduler is the determinism oracle for the real one: the
   equivalence tests pin a Real drain's heap and placement-independent
   counters against both the sequential Cheney drain and the Virtual
   run.  parallelism = 1 is pinned by test_gc.ml to be observationally
   identical to the sequential [Cheney] drain, which stays the oracle. *)

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
let max_workers = Gc_stats.max_domains

type mode = Virtual | Real

(* Forwarding installation in Real mode.  OCaml has no compare-and-swap
   on int-array cells, so the claim is a short critical section under a
   mutex striped by the *source* offset: contenders for one object
   always hash to the same stripe, while unrelated objects almost never
   share one.  64 stripes keeps the false-sharing probability of two
   simultaneous copies below 2% at p = 16. *)
let fwd_locks = Array.init 64 (fun _ -> Mutex.create ())

let fwd_lock_for soff = fwd_locks.(soff land 63)

(* [Virtual] workers use the owner-checked [Deque] (turns are atomic, so
   the indices are plain fields and the discipline is asserted); [Real]
   workers the concurrent [Cl_deque]. *)
type deque = Owned of packet Deque.t | Shared of packet Cl_deque.t

type worker = {
  id : int;
  deque : deque;
  (* steal-victim rotation: one seeded generator shared by all workers
     under [Virtual] (the scheduler serialises it), one per worker under
     [Real] *)
  prng : Support.Prng.t;
  (* object-hook events deferred to the post-drain replay (profiler /
     census updates are not domain-safe): (site, words, first-copy)
     triples — scalars, so deferring stays allocation-light *)
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
  mutable clock : int;    (* virtual ns consumed; wall ns after a Real drain *)
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
  workers : worker array;
  staged : packet Support.Vec.t;
  pend_locs : Mem.Addr.t Support.Vec.t;
  pend_objs : Mem.Addr.t Support.Vec.t;
  pend_cards : int Support.Vec.t;
  mutable running : bool;   (* a Virtual drain is in progress *)
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
  let shared_prng = Support.Prng.create ~seed in
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
    workers =
      Array.init parallelism (fun id ->
        { id;
          deque =
            (match mode with
             | Virtual -> Owned (Deque.create ~owner:id)
             | Real -> Shared (Cl_deque.create ()));
          prng =
            (match mode with
             | Virtual -> shared_prng
             | Real -> Support.Prng.create ~seed:(seed + id));
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

(* --- the mode primitives --- *)

let push w p =
  match w.deque with
  | Owned d -> Deque.push d ~self:w.id p
  | Shared d -> Cl_deque.push d p

let pop w =
  match w.deque with
  | Owned d -> Deque.pop d ~self:w.id
  | Shared d -> Cl_deque.pop d

let steal ~thief v =
  match v.deque with
  | Owned d -> Deque.steal d ~self:thief.id
  | Shared d -> Cl_deque.steal d

let is_empty w =
  match w.deque with
  | Owned d -> Deque.is_empty d
  | Shared d -> Cl_deque.is_empty d

(* critical sections exist only between real domains *)
let lock t mu = if t.mode = Real then Mutex.lock mu
let unlock t mu = if t.mode = Real then Mutex.unlock mu

(* [publish] is the owner-side deque push; during a Virtual drain it
   also wakes idle workers, modelling thieves that spin on the victims'
   bottoms.  A woken thief cannot act before the publisher's present,
   so its clock jumps forward to the publication instant.  Real workers
   find work by spinning on the deques themselves, and must never write
   another worker's fields. *)
let publish t w p =
  push w p;
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
   linearly walkable.  [Space.alloc_chunk_atomic]'s grant rule plus the
   fit check in [alloc_copy] guarantee the unused tail is 0 or >= 3
   words. *)
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
  match Mem.Space.alloc_chunk_atomic t.to_space ~min_words ~pref_words:pref with
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

(* The forwarding claim: check-then-install of [dst] in the source
   header, true when this worker won.  Real runs it under the source's
   stripe lock; under Virtual a turn is atomic, so a lost claim means a
   broken claim discipline and is loud when checks are on. *)
let claim t src soff dst =
  let lk = fwd_lock_for soff in
  lock t lk;
  let won = not (Mem.Header.is_forwarded_c src ~off:soff) in
  if won then Mem.Header.set_forward_c src ~off:soff ~target:dst;
  unlock t lk;
  if (not won) && t.mode = Virtual && !Deque.checks then
    invalid_arg "Par_drain: forwarding CAS lost (object about to double-copy)";
  won

(* The target of a forwarded object.  Under Real the racy tag read that
   found it forwarded may run ahead of the target-word store; re-reading
   under the stripe gives the happens-before edge. *)
let forward_target t src soff =
  let lk = fwd_lock_for soff in
  lock t lk;
  let dst = Mem.Header.forward_target_c src ~off:soff in
  unlock t lk;
  dst

(* The blit runs optimistically before the claim.  A loser rolls the
   private bump pointer back ([w.c_alloc <- doff]), abandoning its copy
   — the final filler over [c_alloc, c_limit) covers the garbage.  The
   winner's blit is pristine: forwarding headers are only ever written
   by a claim, and the winner observed the object unforwarded, so no
   writer touched the source during the blit.  The bookkeeping then
   reads the private copy, since the source header now holds the
   forwarding pointer. *)
let rec copy_object t w src soff =
  let words = Mem.Header.object_words_c src ~off:soff in
  let doff = alloc_copy t w words in
  Array.blit src soff t.to_cells doff words;
  let dst = addr_of t doff in
  if not (claim t src soff dst) then begin
    w.c_alloc <- doff;
    forward_target t src soff
  end
  else begin
    let site = Mem.Header.site_c t.to_cells ~off:doff in
    let first_copy = not (Mem.Header.survivor_c t.to_cells ~off:doff) in
    if t.object_hooks <> None then
      Support.Vec.push w.deferred (site, words, first_copy);
    Mem.Header.set_survivor_c t.to_cells ~off:doff;
    if w.sites <> None then note_site_copy w ~site ~first:first_copy ~words;
    w.copied <- w.copied + words;
    w.clock <- w.clock + (words * cost_copy_word);
    (* winner-only eager evacuation: losers abandoned their copy *)
    if t.eager && w.eager_depth < eager_depth_bound then begin
      if w.eager_depth = 0 then w.eager_budget <- eager_words_bound;
      if w.eager_budget > 0 then begin
        w.eager_depth <- w.eager_depth + 1;
        eager_children t w doff;
        w.eager_depth <- w.eager_depth - 1
      end
    end;
    dst
  end

(* Placement only: copy the not-yet-forwarded children of the fresh copy
   at [doff] right behind it (depth-first, bounded).  Fields are NOT
   rewritten here — the normal chunk scan finds the children already
   forwarded and just installs the pointers.  Under Real the unforwarded
   check is racy, which is fine: a child claimed meanwhile makes this
   worker's [copy_object] lose and roll back. *)
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
        Mem.Value.encode_addr (forward_target t src soff)
      else Mem.Value.encode_addr (copy_object t w src soff)
    end
    else begin
      (match t.los with
       | Some los when t.trace_los && Los.contains los a ->
         (* [contains] is a read-only lookup (no inserts during a
            drain); [mark]'s test-and-set must be exclusive or a
            double-mark would double-scan the object *)
         lock t t.los_mu;
         let fresh = Los.mark los a in
         unlock t t.los_mu;
         if fresh then publish t w (Scan_objs [| a |])
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

(* Store-buffer duplicates mean two Real workers may visit one location
   concurrently; both compute the same forwarded word and plain int
   stores do not tear, so the race is benign. *)
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
    let r = Support.Prng.int w.prng (n - 1) in
    let found = ref None in
    (try
       for k = 0 to n - 2 do
         let d = 1 + ((r + k) mod (n - 1)) in
         match steal ~thief:w t.workers.((w.id + d) mod n) with
         | Some p ->
           found := Some p;
           raise Exit
         | None -> ()
       done
     with Exit -> ());
    !found
  end

(* One turn of worker [w]: its local grey region first, then its own
   deque, then a steal.  False when it found no work. *)
let step t w =
  if w.c_base >= 0 && w.c_scan < w.c_alloc then begin
    scan_local_step t w;
    true
  end
  else
    match pop w with
    | Some p ->
      process_packet t w p;
      true
    | None ->
      (match try_steal t w with
       | Some p ->
         w.steals <- w.steals + 1;
         w.clock <- w.clock + cost_steal;
         process_packet t w p;
         true
       | None -> false)

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
    | Some w -> if not (step t w) then w.idle <- true
  done;
  t.running <- false

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
  let rec work () =
    while step t w do () done;
    Atomic.incr idlers;
    wait 0
  and wait spins =
    if Atomic.get finished then Atomic.decr idlers
    else if Atomic.get idlers = n then begin
      Atomic.set finished true;
      Atomic.decr idlers
    end
    else if Array.exists (fun v -> v != w && not (is_empty v)) t.workers
    then begin
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

let run t =
  check_staging t "run";
  t.ran <- true;
  flush_pending t t.pend_locs (fun a -> Locs a);
  flush_pending t t.pend_objs (fun a -> Visit_objs a);
  flush_pending t t.pend_cards (fun a -> Cards a);
  (* deal the staged packets round-robin; this is the initial partition,
     load balance from here on is the thieves' business.  The deal
     precedes any domain start: plain pushes, published to Real workers
     by the pool monitor's happens-before edge *)
  let n = Array.length t.workers in
  Support.Vec.iteri (fun k p -> push t.workers.(k mod n) p) t.staged;
  Support.Vec.clear t.staged;
  Mem.Space.par_begin t.to_space;
  (match t.mode with
   | Virtual -> run_virtual t
   | Real ->
     let idlers = Atomic.make 0 and finished = Atomic.make false in
     Domain_pool.run (Domain_pool.get ()) ~lanes:n (fun lane ->
         worker_real t t.workers.(lane) ~idlers ~finished));
  (* all grey exhausted; pad the final chunks *)
  Array.iter
    (fun w ->
      assert (w.c_base < 0 || w.c_scan = w.c_alloc);
      retire_chunk t w)
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
