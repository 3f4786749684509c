module Value = Mem.Value
module Header = Mem.Header
module Memory = Mem.Memory

exception Sim_raise of int

type handler_entry = {
  h_depth : int;
  h_id : int;
}

type t = {
  cfg : Config.t;
  mem : Memory.t;
  table : Rstack.Trace_table.t;
  stack : Rstack.Stack_.t;
  regs : Rstack.Reg_file.t;
  cache : Rstack.Scan_cache.t;
  scan_result : Rstack.Scan.result;  (* the collector-facing scan's, reused *)
  markers : Rstack.Markers.t;
  globals : int array;           (* encoded words, like frame slots *)
  dirty : Bytes.t;
      (* one flag per global: written since the last completed
         collection.  A [Minor] root scan visits only these (DESIGN.md
         §5n) *)
  mutable dirty_count : int;     (* flags set in [dirty] *)
  exn_cell : int array;
  stats : Collectors.Gc_stats.t;
  site_names : string Support.Vec.t;
  profiler : Heap_profile.Profiler.t option;
  scan_elision : bool;  (* the policy's: [init_field] takes the fallback *)
  mutable sites : Bytes.t;
      (* the per-site pretenure decisions, one byte per site id, nonzero
         when pretenured (sites past the end: not).  Filled from the
         static policy at [create]; the adaptive control plane rewrites
         them through [Hooks.set_pretenure] at collection boundaries. *)
  handlers : handler_entry Support.Vec.t;
  mutable next_handler_id : int;
  mutable last_scan_serial : int;
  mutable pending_unwind : int;  (* deferred strategy: min depth reached *)
  mutable collector : Collectors.Collector.t option;
}

let config t = t.cfg
let stats t = t.stats

let collector t =
  match t.collector with
  | Some c -> c
  | None -> assert false

let birth_bytes t =
  t.stats.Collectors.Gc_stats.words_allocated * Memory.bytes_per_word

(* --- heap checking --- *)

(* [f] on every root word, in the collector's order: a trace-accurate
   Full stack scan into a local buffer against a scratch cache, then the
   globals and the exception cell *)
let iter_root_words t f =
  let roots = Rstack.Root.Buf.create () in
  ignore
    (Rstack.Scan.run ~stack:t.stack ~regs:t.regs
       ~cache:(Rstack.Scan_cache.create ()) ~valid_prefix:0
       ~mode:Rstack.Scan.Full ~roots
      : Rstack.Scan.result);
  Rstack.Root.Buf.iter roots (fun f cells i -> f cells.(i)) f;
  Array.iter f t.globals;
  f t.exn_cell.(0)

let young_roots t =
  let col = collector t in
  let n = ref 0 in
  iter_root_words t (fun w ->
    if
      Value.encoded_is_ptr w
      && Collectors.Collector.in_nursery col (Value.encoded_to_addr w)
    then incr n);
  !n

(* [visit push base] once on every object reachable from the roots,
   depth first.  [push] takes an encoded word and queues its object
   unless the word is an integer or null or the object was seen *)
let iter_reachable t visit =
  let seen = Support.Int_hashset.create () and stack = Support.Vec.create () in
  let push w =
    if Value.encoded_is_ptr w && Support.Int_hashset.add seen w then
      Support.Vec.push stack w
  in
  iter_root_words t push;
  while not (Support.Vec.is_empty stack) do
    visit push (Value.encoded_to_addr (Support.Vec.pop stack))
  done

(* [f] on the encoded word of every pointer field of the object at
   [off] in [cells] *)
let iter_pointer_fields cells ~off f =
  let fields = off + Header.header_words () in
  for i = 0 to Header.len_c cells ~off - 1 do
    if Header.is_pointer_field_c cells ~off i then f cells.(fields + i)
  done

(* [~no_young_fields]: also fail on a reachable heap field that points
   into the nursery, which must be empty of live data after a minor
   under immediate promotion *)
let walk_heap t ~no_young_fields =
  let col = collector t in
  let count = ref 0 in
  iter_reachable t (fun push base ->
    incr count;
    if not (Memory.live_block t.mem base) then
      failwith "check_heap: pointer into a freed block";
    let cells = Memory.cells t.mem base and off = Mem.Addr.offset base in
    if Header.is_forwarded_c cells ~off then
      failwith "check_heap: dangling forwarding pointer";
    iter_pointer_fields cells ~off (fun w ->
      if
        no_young_fields && Value.encoded_is_ptr w
        && Collectors.Collector.in_nursery col (Value.encoded_to_addr w)
      then
        failwith "check_heap: a heap field points into the nursery after a minor";
      push w));
  !count

let check_heap t = walk_heap t ~no_young_fields:false

(* --- hooks wired into the collector --- *)

let scan_stack_hook t mode roots =
  (* deferred exception strategy: fold unwinds recorded since the last
     collection into the marker state now (the paper's alternative of
     walking the handler chain at each collection) *)
  if t.pending_unwind < max_int then begin
    if t.cfg.Config.stack_markers then
      Rstack.Markers.exception_unwound t.markers ~target_depth:t.pending_unwind;
    t.pending_unwind <- max_int
  end;
  let valid =
    if t.cfg.Config.stack_markers then
      min
        (Rstack.Markers.valid_prefix t.markers)
        (min (Rstack.Scan_cache.length t.cache) (Rstack.Stack_.depth t.stack))
    else 0
  in
  Rstack.Scan.run_into t.scan_result ~stack:t.stack ~regs:t.regs
    ~cache:t.cache ~valid_prefix:valid ~mode ~roots;
  let fresh =
    Rstack.Stack_.count_new_frames t.stack ~since_serial:t.last_scan_serial
  in
  t.last_scan_serial <- Rstack.Stack_.next_serial t.stack - 1;
  t.stats.Collectors.Gc_stats.new_frames_sum <-
    t.stats.Collectors.Gc_stats.new_frames_sum + fresh;
  t.scan_result

(* [Full] visits every global.  [Minor] visits only the globals written
   since the last collection, in index order: minor scans run only under
   immediate promotion, so after any collection no global points into
   the nursery, and a global not written since still does not.  The
   exception cell is always visited. *)
let visit_globals_hook t mode roots =
  (match mode with
   | Rstack.Scan.Full ->
     for i = 0 to Array.length t.globals - 1 do
       Rstack.Root.Buf.push roots t.globals i
     done
   | Rstack.Scan.Minor ->
     let left = ref t.dirty_count and i = ref 0 in
     while !left > 0 do
       if Bytes.unsafe_get t.dirty !i <> '\000' then begin
         Rstack.Root.Buf.push roots t.globals !i;
         decr left
       end;
       incr i
     done);
  Rstack.Root.Buf.push roots t.exn_cell 0

(* [g] was just stored through a bounds-checked write, so it indexes
   [dirty] too *)
let mark_dirty t g =
  if Bytes.unsafe_get t.dirty g = '\000' then begin
    Bytes.unsafe_set t.dirty g '\001';
    t.dirty_count <- t.dirty_count + 1
  end

let clear_dirty t =
  if t.dirty_count > 0 then begin
    Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\000';
    t.dirty_count <- 0
  end

let after_collection_hook t ~full ~allocs ~copies ~deaths =
  (match t.profiler with
   | None -> ()
   | Some p ->
     Heap_profile.Profiler.fold_allocs p allocs;
     Heap_profile.Profiler.fold_copies p copies;
     Heap_profile.Profiler.fold_deaths p deaths);
  if t.cfg.Config.verify_heap then begin
    (* a minor under immediate promotion empties the nursery, so a root
       or a reachable field still pointing into it is one the minor did
       not visit *)
    let emptied = (not full) && t.cfg.Config.tenure_threshold = 1 in
    if emptied && young_roots t > 0 then
      failwith "check_heap: a root points into the nursery after a minor";
    ignore (walk_heap t ~no_young_fields:emptied : int)
  end;
  if t.cfg.Config.stack_markers then begin
    let installed = Rstack.Markers.place t.markers t.stack in
    t.stats.Collectors.Gc_stats.marker_stubs_installed <-
      t.stats.Collectors.Gc_stats.marker_stubs_installed + installed;
    if Obs.Trace.enabled () then
      Obs.Trace.marker_place ~installed ~depth:(Rstack.Stack_.depth t.stack)
  end;
  clear_dirty t

(* --- the per-site table --- *)

(* sites outside the header's range can never be allocated *)
let site_in_range s = s >= 0 && s <= Header.max_site

let site_table policy =
  let pretenured =
    List.filter site_in_range (Pretenure.pretenured_sites policy)
  in
  let tbl = Bytes.make (List.fold_left max (-1) pretenured + 1) '\000' in
  List.iter (fun s -> Bytes.set tbl s '\001') pretenured;
  tbl

let pretenured t site =
  site >= 0 && site < Bytes.length t.sites
  && Bytes.unsafe_get t.sites site <> '\000'

let set_pretenure t ~site ~enabled =
  if site_in_range site then begin
    let n = Bytes.length t.sites in
    if site >= n then begin
      let size = min (Header.max_site + 1) (max (site + 1) (2 * n)) in
      let grown = Bytes.make size '\000' in
      Bytes.blit t.sites 0 grown 0 n;
      t.sites <- grown
    end;
    Bytes.set t.sites site (if enabled then '\001' else '\000')
  end

let create cfg =
  (* Install the header layout before the first object exists.  The
     packed layout drops the per-object birth word unless someone will
     read births: the live profiler or the trace stream (docs/LAYOUT.md,
     docs/TRACING.md). *)
  Header.set_layout
    ~birth:(cfg.Config.profiling || Obs.Trace.detailed ())
    cfg.Config.header_layout;
  let mem = Memory.create () in
  let table = Rstack.Trace_table.create () in
  let stats = Collectors.Gc_stats.create () in
  let t =
    { cfg;
      mem;
      table;
      stack = Rstack.Stack_.create table;
      regs = Rstack.Reg_file.create ();
      cache = Rstack.Scan_cache.create ();
      scan_result = Rstack.Scan.result ();
      markers = Rstack.Markers.create ~n:cfg.Config.marker_spacing;
      globals = Array.make cfg.Config.global_slots Value.encoded_zero;
      dirty = Bytes.make cfg.Config.global_slots '\000';
      dirty_count = 0;
      exn_cell = Array.make 1 Value.encoded_zero;
      stats;
      site_names = Support.Vec.create ();
      profiler =
        (if cfg.Config.profiling then
           Some
             (Heap_profile.Profiler.create
                ~now_bytes:
                  (fun () -> stats.Collectors.Gc_stats.words_allocated
                             * Memory.bytes_per_word))
         else None);
      scan_elision = Pretenure.scan_elision cfg.Config.pretenure;
      sites = site_table cfg.Config.pretenure;
      handlers = Support.Vec.create ();
      next_handler_id = 0;
      last_scan_serial = -1;
      pending_unwind = max_int;
      collector = None }
  in
  let hooks =
    { Collectors.Hooks.scan_stack = scan_stack_hook t;
      visit_globals = visit_globals_hook t;
      after_collection =
        (fun ~full ~allocs ~copies ~deaths ->
          after_collection_hook t ~full ~allocs ~copies ~deaths);
      (* profiling switches on the collectors' site tallies and death
         sweeps, whose rows feed the profiler through [after_collection] *)
      profiling = cfg.Config.profiling;
      scan_elision = t.scan_elision;
      set_pretenure = (fun ~site ~enabled -> set_pretenure t ~site ~enabled) }
  in
  let col =
    match cfg.Config.collector with
    | Config.Semispace ->
      Collectors.Collector.Semispace
        (Collectors.Semispace.create mem ~hooks ~stats
           { Collectors.Semispace.target_liveness =
               cfg.Config.semispace_target_liveness;
             budget_bytes = cfg.Config.budget_bytes;
             initial_bytes = cfg.Config.semispace_initial_bytes;
             parallelism = cfg.Config.parallelism;
             parallelism_mode = cfg.Config.parallelism_mode;
             chunk_words = cfg.Config.chunk_words;
             eager_evac = cfg.Config.eager_evac })
    | Config.Generational ->
      Collectors.Collector.Generational
        (Collectors.Generational.create mem ~hooks ~stats
           (Config.generational_config cfg))
  in
  t.collector <- Some col;
  t

let destroy t = Collectors.Collector.destroy (collector t)

(* --- registration --- *)

let register_frame_regs t ~name ~slots ~regs =
  Rstack.Trace_table.register t.table { Rstack.Trace_table.name; slots; regs }

let register_frame t ~name ~slots =
  register_frame_regs t ~name ~slots ~regs:(Rstack.Trace_table.plain_regs ())

let register_site t ~name =
  Support.Vec.push t.site_names name;
  Support.Vec.length t.site_names - 1

let site_name t site =
  if site < 0 || site >= Support.Vec.length t.site_names then
    Printf.sprintf "site-%d" site
  else Support.Vec.get t.site_names site

let site_count t = Support.Vec.length t.site_names

(* --- operands ---

   An operand is an immediate int (DESIGN.md §5r).  An immediate is its
   own encoded word, [Value.encode_int n] with low bit 1; a location is
   [(idx lsl 3) lor (kind lsl 1)] with low bit 0, kind 0 the null
   pointer, 1 a frame slot, 2 a register and 3 a global.  A [dst] is a
   location of kind 1 to 3.  Operands move as encoded words: frames,
   registers and globals hold them, so no [Value.t] is built between a
   cell and the heap. *)

type src = int
type dst = int
type word = int

let imm n = Value.encode_int n
let nil = 0
let location kind idx = (idx lsl 3) lor (kind lsl 1)
let slot i = location 1 i
let reg r = location 2 r
let global g = location 3 g
let to_slot = slot
let to_reg = reg
let to_global = global

let read_word t s =
  if s land 1 = 1 then s
  else
    let idx = s asr 3 in
    match (s lsr 1) land 3 with
    | 0 -> Value.encoded_null
    | 1 -> Rstack.Stack_.get_word t.stack idx
    | 2 -> Rstack.Reg_file.get_word t.regs idx
    | _ -> t.globals.(idx)

let write_word t d w =
  let idx = d asr 3 in
  match (d lsr 1) land 3 with
  | 1 -> Rstack.Stack_.set_word t.stack idx w
  | 2 -> Rstack.Reg_file.set_word t.regs idx w
  | _ ->
    t.globals.(idx) <- w;
    mark_dirty t idx

let word = read_word
let set = write_word
let move t src dst = write_word t dst (read_word t src)

let read t src = Value.decode (read_word t src)
let write t dst v = write_word t dst (Value.encode v)

(* --- frames --- *)

let depth t = Rstack.Stack_.depth t.stack

(* is the top frame the one born with [serial]? *)
let on_top t serial =
  let d = Rstack.Stack_.depth t.stack in
  d > 0 && Rstack.Stack_.serial_at t.stack (d - 1) = serial

(* pops the frame born with [serial], which must be on top *)
let pop_frame t serial =
  assert (on_top t serial);
  let d = Rstack.Stack_.depth t.stack in
  let marked = Rstack.Stack_.pop t.stack in
  if t.cfg.Config.stack_markers then begin
    if marked then
      t.stats.Collectors.Gc_stats.marker_stub_hits <-
        t.stats.Collectors.Gc_stats.marker_stub_hits + 1;
    Rstack.Markers.frame_popped t.markers ~marked ~depth:d
  end

let mut_op t =
  t.stats.Collectors.Gc_stats.mutator_ops <-
    t.stats.Collectors.Gc_stats.mutator_ops + 1

(* pushes a frame for [key] and returns its serial.  One trace-table
   lookup serves the arity check and the push; the arity is checked
   before the push, so a rejected call leaves the stack as it was *)
let enter t ~key ~arity =
  mut_op t;
  let entry = Rstack.Trace_table.lookup t.table key in
  if arity > Array.length entry.Rstack.Trace_table.slots then
    invalid_arg "Runtime.call: more arguments than frame slots";
  let serial = Rstack.Stack_.next_serial t.stack in
  Rstack.Stack_.push t.stack ~key entry;
  serial

let run_frame t serial body x =
  match body x with
  | v ->
    pop_frame t serial;
    v
  | exception (Sim_raise _ as e) ->
    (* the simulated unwind already removed this frame *)
    raise e
  | exception e ->
    (* host-level exception (test assertion, bug): keep the simulated
       stack consistent before propagating *)
    if on_top t serial then pop_frame t serial;
    raise e

(* the arguments are read in the caller, before the push *)
let call0 t ~key body x = run_frame t (enter t ~key ~arity:0) body x

let call1 t ~key a0 body x =
  let w0 = read_word t a0 in
  let serial = enter t ~key ~arity:1 in
  Rstack.Stack_.set_word t.stack 0 w0;
  run_frame t serial body x

let call2 t ~key a0 a1 body x =
  let w0 = read_word t a0 and w1 = read_word t a1 in
  let serial = enter t ~key ~arity:2 in
  Rstack.Stack_.set_word t.stack 0 w0;
  Rstack.Stack_.set_word t.stack 1 w1;
  run_frame t serial body x

let call3 t ~key a0 a1 a2 body x =
  let w0 = read_word t a0 and w1 = read_word t a1 and w2 = read_word t a2 in
  let serial = enter t ~key ~arity:3 in
  Rstack.Stack_.set_word t.stack 0 w0;
  Rstack.Stack_.set_word t.stack 1 w1;
  Rstack.Stack_.set_word t.stack 2 w2;
  run_frame t serial body x

let int_of t src = Value.decode_int (read_word t src)

(* --- allocation --- *)

(* The general allocation path: the scalar collector entry, with the
   pretenure decision read from the per-site table.  Only [alloc_small]'s
   clean nursery records bypass it. *)
let alloc_fields t ~tag ~len ~mask ~site =
  let pretenure = pretenured t site in
  if pretenure && Obs.Trace.enabled () then
    Obs.Trace.pretenure ~site ~words:(Header.header_words () + len);
  Collectors.Collector.alloc_fields (collector t) ~pretenure ~tag ~len ~mask
    ~site ~birth:(birth_bytes t)

let check_pointer_word w =
  if Value.encoded_is_int w then
    invalid_arg "Runtime: integer written to a pointer field"

let check_integer_word w =
  if Value.encoded_is_ptr w then
    invalid_arg "Runtime: pointer written to an integer field"

(* [src] is read, checked and stored into field [i] of the fresh record
   [base] ([cells], [off]: its block and offset); bit [i] of [mask] says
   the field is a pointer.  Under scan elision (Section 7.2) the minor
   skips the pretenured region, so a pointer field of a record outside
   the nursery (pretenured, statically or by the adaptive controller)
   falls back to the write barrier when it holds a nursery object *)
let init_field t cells ~off ~mask base i src =
  let w = read_word t src in
  let cell = off + Header.header_words () + i in
  if mask land (1 lsl i) <> 0 then begin
    check_pointer_word w;
    cells.(cell) <- w;
    if t.scan_elision && Value.encoded_is_ptr w then begin
      let col = collector t in
      if
        Collectors.Collector.in_nursery col (Value.encoded_to_addr w)
        && not (Collectors.Collector.in_nursery col base)
      then begin
        Collectors.Collector.remember col ~obj:base
          ~loc:(Mem.Addr.unsafe_add base (cell - off));
        t.stats.Collectors.Gc_stats.region_scan_fallbacks <-
          t.stats.Collectors.Gc_stats.region_scan_fallbacks + 1
      end
    end
  end
  else begin
    check_integer_word w;
    cells.(cell) <- w
  end

(* The general record path: grant (collecting if it must) and zero,
   then read, check and store each field in turn.  A refused field
   raises with the record granted, the fields before it stored and the
   rest zero.  [len] <= 5 operands are taken; the rest are ignored. *)
let alloc_general t ~site ~mask ~dst ~len a0 a1 a2 a3 a4 =
  let base = alloc_fields t ~tag:Header.tag_record ~len ~mask ~site in
  let cells = Memory.cells t.mem base and off = Mem.Addr.offset base in
  init_field t cells ~off ~mask base 0 a0;
  if len > 1 then init_field t cells ~off ~mask base 1 a1;
  if len > 2 then init_field t cells ~off ~mask base 2 a2;
  if len > 3 then init_field t cells ~off ~mask base 3 a3;
  if len > 4 then init_field t cells ~off ~mask base 4 a4;
  write_word t dst (Value.encode_addr base)

(* An even word below every encoded address and unequal to the null
   word: no cell or operand ever holds it *)
let refused = min_int

(* [read_word] without the raise: [refused] where it would raise *)
let peek_word t s =
  if s land 1 = 1 then s
  else
    let idx = s asr 3 in
    match (s lsr 1) land 3 with
    | 0 -> Value.encoded_null
    | 1 -> Rstack.Stack_.peek_word t.stack idx ~none:refused
    | 2 ->
      let regs = Rstack.Reg_file.cells t.regs in
      if idx >= 0 && idx < Array.length regs then Array.unsafe_get regs idx
      else refused
    | _ ->
      if idx >= 0 && idx < Array.length t.globals then
        Array.unsafe_get t.globals idx
      else refused

(* the word [init_field] would store from [src] into a field of this
   pointerness, or [refused] where it would raise: [check_pointer_word]
   and [check_integer_word] as tests ([refused] reads as a pointer, so
   a pointer field keeps it refused) *)
let field_word t src ~ptr =
  let w = peek_word t src in
  if ptr then (if Value.encoded_is_int w then refused else w)
  else if Value.encoded_is_ptr w then refused
  else w

(* Records of one to five fields, written once (DESIGN.md §5w).  A
   nursery record whose every field word reads and checks clean takes a
   bump that never collects, so the words read before it are still the
   live ones, and they go straight into the nursery cells: no zero fill,
   no block lookup.  Everything else (Semispace, a pretenured site, a
   refused word, a full nursery) takes [alloc_general], which produces
   the same heap, counters and exceptions it always has.  The pretenure
   test comes first, so pretenured sites read nothing twice. *)
let alloc_small t ~site ~mask ~dst ~len a0 a1 a2 a3 a4 =
  match t.collector with
  | Some (Collectors.Collector.Generational g) when not (pretenured t site) ->
    let w0 = field_word t a0 ~ptr:(mask land 1 <> 0) in
    let w1 = if len > 1 then field_word t a1 ~ptr:(mask land 2 <> 0) else 0 in
    let w2 = if len > 2 then field_word t a2 ~ptr:(mask land 4 <> 0) else 0 in
    let w3 = if len > 3 then field_word t a3 ~ptr:(mask land 8 <> 0) else 0 in
    let w4 = if len > 4 then field_word t a4 ~ptr:(mask land 16 <> 0) else 0 in
    let base =
      if w0 = refused || w1 = refused || w2 = refused || w3 = refused
         || w4 = refused
      then Mem.Addr.null
      else
        Collectors.Generational.bump_record g ~len ~mask ~site
          ~birth:(birth_bytes t)
    in
    if Mem.Addr.is_null base then
      alloc_general t ~site ~mask ~dst ~len a0 a1 a2 a3 a4
    else begin
      let cells = Collectors.Generational.nursery_cells g in
      let f = Mem.Addr.offset base + Header.header_words () in
      cells.(f) <- w0;
      if len > 1 then cells.(f + 1) <- w1;
      if len > 2 then cells.(f + 2) <- w2;
      if len > 3 then cells.(f + 3) <- w3;
      if len > 4 then cells.(f + 4) <- w4;
      write_word t dst (Value.encode_addr base)
    end
  | Some _ | None -> alloc_general t ~site ~mask ~dst ~len a0 a1 a2 a3 a4

let alloc_record1 t ~site ~mask ~dst a0 =
  alloc_small t ~site ~mask ~dst ~len:1 a0 nil nil nil nil

let alloc_record2 t ~site ~mask ~dst a0 a1 =
  alloc_small t ~site ~mask ~dst ~len:2 a0 a1 nil nil nil

let alloc_record3 t ~site ~mask ~dst a0 a1 a2 =
  alloc_small t ~site ~mask ~dst ~len:3 a0 a1 a2 nil nil

let alloc_record4 t ~site ~mask ~dst a0 a1 a2 a3 =
  alloc_small t ~site ~mask ~dst ~len:4 a0 a1 a2 a3 nil

let alloc_record5 t ~site ~mask ~dst a0 a1 a2 a3 a4 =
  alloc_small t ~site ~mask ~dst ~len:5 a0 a1 a2 a3 a4

let alloc_record_n t ~site ~mask ~dst fields =
  let len = Array.length fields in
  let base = alloc_fields t ~tag:Header.tag_record ~len ~mask ~site in
  let cells = Memory.cells t.mem base and off = Mem.Addr.offset base in
  Array.iteri (init_field t cells ~off ~mask base) fields;
  write_word t dst (Value.encode_addr base)

let alloc_ptr_array t ~site ~dst ~len =
  let base = alloc_fields t ~tag:Header.tag_ptr_array ~len ~mask:0 ~site in
  (* null pointers, not zero integers *)
  Array.fill (Memory.cells t.mem base)
    (Mem.Addr.offset base + Header.header_words ())
    len Value.encoded_null;
  write_word t dst (Value.encode_addr base)

let alloc_nonptr_array t ~site ~dst ~len =
  let base = alloc_fields t ~tag:Header.tag_nonptr_array ~len ~mask:0 ~site in
  write_word t dst (Value.encode_addr base)

(* --- heap access ---

   Each operation resolves the object's block once ([Memory.cells]) and
   decodes its header with the [Header.*_c] accessors: no [Header.t], no
   second block lookup, no [Addr.add].  The checks and their messages
   are the safe tier's, in its order: null or integer dereference, freed
   block (the lookup), forwarded object, index bounds, then the field's
   pointerness.  test/runtime_ref.ml is that safe-tier twin. *)

let obj_base t src =
  let w = read_word t src in
  if Value.encoded_is_ptr w then Value.encoded_to_addr w
  else if Value.encoded_is_int w then
    invalid_arg "Runtime: dereferencing an integer"
  else invalid_arg "Runtime: null pointer dereference"

(* the cell of field [idx] of the object at [off] *)
let field_cell cells ~off idx =
  Header.check_not_forwarded_c cells ~off;
  if idx < 0 || idx >= Header.len_c cells ~off then
    invalid_arg "Runtime: field index out of bounds";
  off + Header.header_words () + idx

let load_field t ~obj ~idx ~dst =
  mut_op t;
  let base = obj_base t obj in
  let cells = Memory.cells t.mem base in
  write_word t dst cells.(field_cell cells ~off:(Mem.Addr.offset base) idx)

let store_field t ~obj ~idx ~ptr src =
  mut_op t;
  let base = obj_base t obj in
  let cells = Memory.cells t.mem base in
  let off = Mem.Addr.offset base in
  let cell = field_cell cells ~off idx in
  if ptr then begin
    if not (Header.is_pointer_field_c cells ~off idx) then
      invalid_arg "Runtime: pointer store into a non-pointer field";
    let w = read_word t src in
    check_pointer_word w;
    cells.(cell) <- w;
    (* the field lies inside the object's block: [cell] was just stored *)
    Collectors.Collector.record_update (collector t) ~obj:base
      ~loc:(Mem.Addr.unsafe_add base (cell - off))
  end
  else begin
    if Header.is_pointer_field_c cells ~off idx then
      invalid_arg "Runtime: integer store into a pointer field";
    let w = read_word t src in
    check_integer_word w;
    cells.(cell) <- w
  end

let field_int t ~obj ~idx =
  mut_op t;
  let base = obj_base t obj in
  let cells = Memory.cells t.mem base in
  Value.decode_int cells.(field_cell cells ~off:(Mem.Addr.offset base) idx)

let obj_length t ~obj =
  let base = obj_base t obj in
  let cells = Memory.cells t.mem base and off = Mem.Addr.offset base in
  Header.check_not_forwarded_c cells ~off;
  Header.len_c cells ~off

let obj_site t ~obj =
  let base = obj_base t obj in
  let cells = Memory.cells t.mem base and off = Mem.Addr.offset base in
  Header.check_not_forwarded_c cells ~off;
  Header.site_c cells ~off

let is_nil t src = read_word t src = Value.encoded_null

let same_obj t a b =
  let wb = read_word t b in
  let wa = read_word t a in
  if Value.encoded_is_int wa || Value.encoded_is_int wb then
    invalid_arg "Runtime.same_obj: integer operand";
  wa = wb

(* --- exceptions --- *)

let try_with t body ~handler =
  let id = t.next_handler_id in
  t.next_handler_id <- id + 1;
  Support.Vec.push t.handlers
    { h_depth = Rstack.Stack_.depth t.stack; h_id = id };
  match body () with
  | v ->
    let entry = Support.Vec.pop t.handlers in
    assert (entry.h_id = id);
    v
  | exception Sim_raise id' when id' = id -> handler ()
  | exception e ->
    (* remove our entry if the raise skipped it (host exception) *)
    if
      (not (Support.Vec.is_empty t.handlers))
      && (Support.Vec.top t.handlers).h_id = id
    then ignore (Support.Vec.pop t.handlers : handler_entry);
    raise e

let raise_exn t src =
  t.exn_cell.(0) <- read_word t src;
  if Support.Vec.is_empty t.handlers then
    failwith "Runtime: unhandled simulated exception";
  let entry = Support.Vec.pop t.handlers in
  Rstack.Stack_.unwind_to t.stack ~depth:entry.h_depth;
  t.stats.Collectors.Gc_stats.exception_unwinds <-
    t.stats.Collectors.Gc_stats.exception_unwinds + 1;
  if Obs.Trace.enabled () then Obs.Trace.unwind ~target_depth:entry.h_depth;
  (match t.cfg.Config.exception_strategy with
   | Config.Eager_watermark ->
     if t.cfg.Config.stack_markers then
       Rstack.Markers.exception_unwound t.markers ~target_depth:entry.h_depth
   | Config.Deferred_handler_walk ->
     t.pending_unwind <- min t.pending_unwind entry.h_depth);
  raise (Sim_raise entry.h_id)

let exn_value t = Value.decode t.exn_cell.(0)

(* --- control and stats --- *)

let collect_now t = Collectors.Collector.collect_now (collector t)

let max_stack_depth t = Rstack.Stack_.max_depth t.stack

let marker_stub_hits t = Rstack.Markers.stub_hits t.markers

let observe_exit_deaths t =
  match t.profiler with
  | None -> ()
  | Some p ->
    let deaths = Collectors.Site_tally.create () in
    iter_reachable t (fun push base ->
      let cells = Memory.cells t.mem base and off = Mem.Addr.offset base in
      Collectors.Site_tally.note_death deaths ~site:(Header.site_c cells ~off)
        ~birth:(Header.birth_c cells ~off);
      iter_pointer_fields cells ~off push);
    Heap_profile.Profiler.fold_deaths p deaths

let profile t =
  Option.map
    (fun p ->
      (* allocations since the last collection: no [after_collection]
         has carried their rows yet *)
      Collectors.Collector.flush_site_allocs (collector t)
        (Heap_profile.Profiler.fold_allocs p);
      Heap_profile.Profiler.data p ~site_name:(site_name t))
    t.profiler

module Internal = struct
  let memory t = t.mem
  let collector = collector
  let alloc_object t hdr =
    alloc_fields t
      ~tag:(Header.tag_of_kind hdr.Header.kind)
      ~len:hdr.Header.len
      ~mask:(Header.mask_of_kind hdr.Header.kind)
      ~site:hdr.Header.site

  let alloc_record = alloc_record_n

  let record_update t ~obj ~loc =
    Collectors.Collector.record_update (collector t) ~obj ~loc

end
