(* Unit tests for the collector layer: the Cheney engine, the semispace
   and generational collectors, the large-object space and the write
   barriers.  These drive the collectors directly through global roots
   (no simulated stack), which exercises the Hooks plumbing too. *)

module H = Mem.Header
module V = Mem.Value

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* a hooks record whose only roots are the cells of [globals] *)
let global_hooks globals =
  { Collectors.Hooks.nothing with
    Collectors.Hooks.visit_globals =
      (fun visit ->
        Array.iteri (fun i _ -> visit (Rstack.Root.Global (globals, i))) globals)
  }

let record_hdr ?(site = 0) ~mask len = { H.kind = H.Record { mask }; len; site }

(* --- Los --- *)

let los_mark_sweep () =
  let mem = Mem.Memory.create () in
  let los = Collectors.Los.create mem in
  let a = Collectors.Los.alloc los { H.kind = H.Nonptr_array; len = 600; site = 1 } ~birth:0 in
  let b = Collectors.Los.alloc los { H.kind = H.Nonptr_array; len = 700; site = 2 } ~birth:0 in
  check_bool "contains a" true (Collectors.Los.contains los a);
  check_int "live words" (603 + 703) (Collectors.Los.live_words los);
  check_bool "first mark" true (Collectors.Los.mark los a);
  check_bool "second mark is idempotent" false (Collectors.Los.mark los a);
  let died = ref [] in
  let freed =
    Collectors.Los.sweep los ~on_die:(fun ~site ~birth:_ ~words:_ ->
      died := site :: !died)
  in
  Alcotest.(check (list int)) "b died" [ 2 ] !died;
  check_int "sweep reports freed words" 703 freed;
  check_bool "a survives" true (Collectors.Los.contains los a);
  check_bool "b freed" false (Collectors.Los.contains los b);
  (* marks cleared: an unmarked second sweep kills a *)
  let freed2 = Collectors.Los.sweep los ~on_die:(fun ~site:_ ~birth:_ ~words:_ -> ()) in
  check_int "second sweep frees a" 603 freed2;
  check_int "empty" 0 (Collectors.Los.live_words los)

(* --- Ssb / Remset --- *)

let ssb_duplicates () =
  let ssb = Collectors.Ssb.create () in
  let loc = Mem.Addr.make ~block:1 ~offset:5 in
  for _ = 1 to 10 do
    Collectors.Ssb.record ssb loc
  done;
  check_int "keeps duplicates" 10 (Collectors.Ssb.length ssb);
  check_int "total" 10 (Collectors.Ssb.total_recorded ssb);
  let n = ref 0 in
  Collectors.Ssb.drain ssb (fun _ -> incr n);
  check_int "drained all" 10 !n;
  check_int "empty after drain" 0 (Collectors.Ssb.length ssb)

let remset_dedups () =
  let rs = Collectors.Remset.create () in
  let a = Mem.Addr.make ~block:1 ~offset:0 in
  let b = Mem.Addr.make ~block:2 ~offset:0 in
  for _ = 1 to 10 do
    Collectors.Remset.record rs a;
    Collectors.Remset.record rs b
  done;
  check_int "dedups" 2 (Collectors.Remset.length rs);
  check_int "but counts traffic" 20 (Collectors.Remset.total_recorded rs);
  let n = ref 0 in
  Collectors.Remset.drain rs (fun _ -> incr n);
  check_int "drained distinct" 2 !n

(* --- Semispace --- *)

let semi ?(budget = 64 * 1024) globals =
  let mem = Mem.Memory.create () in
  let stats = Collectors.Gc_stats.create () in
  let s =
    Collectors.Semispace.create mem ~hooks:(global_hooks globals) ~stats
      (Collectors.Semispace.default_config ~budget_bytes:budget)
  in
  (mem, s)

let semispace_collect_preserves_graph () =
  let globals = Array.make 2 V.zero in
  let mem, s = semi globals in
  (* a two-node cycle-free chain: g0 -> a -> b *)
  let b = Collectors.Semispace.alloc s (record_hdr ~mask:0 1) ~birth:0 in
  Mem.Memory.set mem (H.field_addr b 0) (V.Int 77);
  let a = Collectors.Semispace.alloc s (record_hdr ~mask:1 1) ~birth:0 in
  Mem.Memory.set mem (H.field_addr a 0) (V.Ptr b);
  globals.(0) <- V.Ptr a;
  Collectors.Semispace.collect s;
  (* everything moved; the graph must survive *)
  let a' = V.to_addr globals.(0) in
  check_bool "a moved" false (Mem.Addr.equal a a');
  let b' = V.to_addr (Mem.Memory.get mem (H.field_addr a' 0)) in
  check_int "payload preserved" 77 (V.to_int (Mem.Memory.get mem (H.field_addr b' 0)));
  check_int "live words" (2 * 4) (Collectors.Semispace.live_words s)

let semispace_drops_garbage () =
  let globals = Array.make 1 V.zero in
  let _mem, s = semi globals in
  for _ = 1 to 100 do
    ignore (Collectors.Semispace.alloc s (record_hdr ~mask:0 2) ~birth:0)
  done;
  Collectors.Semispace.collect s;
  check_int "no survivors" 0 (Collectors.Semispace.live_words s)

let semispace_sharing_preserved () =
  (* two roots to the same object must stay aliased after copying *)
  let globals = Array.make 2 V.zero in
  let mem, s = semi globals in
  let a = Collectors.Semispace.alloc s (record_hdr ~mask:0 1) ~birth:0 in
  Mem.Memory.set mem (H.field_addr a 0) (V.Int 5);
  globals.(0) <- V.Ptr a;
  globals.(1) <- V.Ptr a;
  Collectors.Semispace.collect s;
  check_bool "still aliased" true (V.equal globals.(0) globals.(1))

let semispace_cycle () =
  (* a 2-cycle must not loop the collector *)
  let globals = Array.make 1 V.zero in
  let mem, s = semi globals in
  let a = Collectors.Semispace.alloc s (record_hdr ~mask:1 1) ~birth:0 in
  let b = Collectors.Semispace.alloc s (record_hdr ~mask:1 1) ~birth:0 in
  Mem.Memory.set mem (H.field_addr a 0) (V.Ptr b);
  Mem.Memory.set mem (H.field_addr b 0) (V.Ptr a);
  globals.(0) <- V.Ptr a;
  Collectors.Semispace.collect s;
  let a' = V.to_addr globals.(0) in
  let b' = V.to_addr (Mem.Memory.get mem (H.field_addr a' 0)) in
  let a'' = V.to_addr (Mem.Memory.get mem (H.field_addr b' 0)) in
  check_bool "cycle closed" true (Mem.Addr.equal a' a'');
  check_int "live words" 8 (Collectors.Semispace.live_words s)

let semispace_budget_failure () =
  let globals = Array.make 64 V.zero in
  let _mem, s = semi ~budget:(4 * 1024) globals in
  (* keep everything alive until the budget must fail *)
  match
    for i = 0 to 63 do
      let a = Collectors.Semispace.alloc s { H.kind = H.Nonptr_array; len = 16; site = 0 } ~birth:0 in
      globals.(i) <- V.Ptr a
    done
  with
  | () -> Alcotest.fail "expected budget failure"
  | exception Collectors.Budget.Exhausted _ -> ()

(* --- Generational --- *)

let gen ?(budget = 256 * 1024) ?(nursery = 8 * 1024)
    ?(barrier = Collectors.Generational.Barrier_ssb) ?(threshold = 1)
    ?(parallelism = 1) ?(mode = Collectors.Par_drain.Virtual)
    ?(tenured_backend = Alloc.Backend.Bump)
    ?(los_backend = Alloc.Backend.Free_list)
    ?(major_kind = Collectors.Generational.Copying) ?(eager = false) globals =
  let mem = Mem.Memory.create () in
  let stats = Collectors.Gc_stats.create () in
  let g =
    Collectors.Generational.create mem ~hooks:(global_hooks globals) ~stats
      { (Collectors.Generational.default_config ~budget_bytes:budget) with
        Collectors.Generational.nursery_bytes_max = nursery;
        barrier;
        tenure_threshold = threshold;
        parallelism;
        parallelism_mode = mode;
        tenured_backend;
        los_backend;
        major_kind;
        eager_evac = eager }
  in
  (mem, g, stats)

let gen_promotion () =
  let globals = Array.make 1 V.zero in
  let mem, g, stats = gen globals in
  let a = Collectors.Generational.alloc g (record_hdr ~mask:0 1) ~birth:0 in
  Mem.Memory.set mem (H.field_addr a 0) (V.Int 9);
  globals.(0) <- V.Ptr a;
  check_bool "starts in nursery" true (Collectors.Generational.in_nursery g a);
  Collectors.Generational.minor g;
  let a' = V.to_addr globals.(0) in
  check_bool "promoted to tenured" true (Collectors.Generational.in_tenured g a');
  check_int "payload" 9 (V.to_int (Mem.Memory.get mem (H.field_addr a' 0)));
  check_int "one minor gc" 1 stats.Collectors.Gc_stats.minor_gcs;
  check_bool "promotion counted" true
    (stats.Collectors.Gc_stats.words_promoted = 4)

let gen_write_barrier () =
  (* an old->young pointer created by mutation must keep the young object
     alive even though no stack/global root reaches it at minor GC *)
  let globals = Array.make 1 V.zero in
  let mem, g, _stats = gen globals in
  let holder = Collectors.Generational.alloc g (record_hdr ~mask:1 1) ~birth:0 in
  globals.(0) <- V.Ptr holder;
  Collectors.Generational.minor g;
  let holder = V.to_addr globals.(0) in
  check_bool "holder tenured" true (Collectors.Generational.in_tenured g holder);
  (* young object reachable only through the mutated tenured field *)
  let young = Collectors.Generational.alloc g (record_hdr ~mask:0 1) ~birth:0 in
  Mem.Memory.set mem (H.field_addr young 0) (V.Int 123);
  let loc = H.field_addr holder 0 in
  Mem.Memory.set mem loc (V.Ptr young);
  Collectors.Generational.record_update g ~obj:holder ~loc;
  Collectors.Generational.minor g;
  let young' = V.to_addr (Mem.Memory.get mem (H.field_addr holder 0)) in
  check_bool "young promoted via barrier" true
    (Collectors.Generational.in_tenured g young');
  check_int "payload survived" 123
    (V.to_int (Mem.Memory.get mem (H.field_addr young' 0)))

let gen_missing_barrier_loses_object () =
  (* the converse: without the barrier record, the young object dies —
     this pins down that the barrier is load-bearing in these tests *)
  let globals = Array.make 1 V.zero in
  let mem, g, _ = gen globals in
  let holder = Collectors.Generational.alloc g (record_hdr ~mask:1 1) ~birth:0 in
  globals.(0) <- V.Ptr holder;
  Collectors.Generational.minor g;
  let holder = V.to_addr globals.(0) in
  let young = Collectors.Generational.alloc g (record_hdr ~mask:0 1) ~birth:0 in
  Mem.Memory.set mem (H.field_addr holder 0) (V.Ptr young);
  (* no record_update *)
  Collectors.Generational.minor g;
  (* the field still holds the stale nursery address (nursery was reset):
     reading through it is unsound, which is exactly why the barrier
     exists.  We can only check that the object was not promoted. *)
  let v = Mem.Memory.get mem (H.field_addr holder 0) in
  check_bool "field not redirected (object lost)" true
    (V.equal v (V.Ptr young))

let gen_large_object_space () =
  let globals = Array.make 1 V.zero in
  let _mem, g, stats = gen globals in
  let big =
    Collectors.Generational.alloc g
      { H.kind = H.Nonptr_array; len = 600; site = 3 } ~birth:0
  in
  check_bool "not in nursery" false (Collectors.Generational.in_nursery g big);
  check_bool "not in tenured" false (Collectors.Generational.in_tenured g big);
  globals.(0) <- V.Ptr big;
  Collectors.Generational.full g;
  (* large objects are marked, not copied *)
  check_bool "address stable" true (V.equal globals.(0) (V.Ptr big));
  (* drop it: the next full collection sweeps it *)
  globals.(0) <- V.zero;
  let live_before = Collectors.Generational.live_words g in
  Collectors.Generational.full g;
  check_bool "swept" true (Collectors.Generational.live_words g < live_before);
  check_bool "gcs counted" true (stats.Collectors.Gc_stats.major_gcs >= 2)

let gen_pretenured_region_scan () =
  (* a pretenured object initialised with a young pointer: the region
     scan must promote the young object at the next minor collection *)
  let globals = Array.make 1 V.zero in
  let mem, g, stats = gen globals in
  let young = Collectors.Generational.alloc g (record_hdr ~mask:0 1) ~birth:0 in
  Mem.Memory.set mem (H.field_addr young 0) (V.Int 55);
  let old_obj =
    Collectors.Generational.alloc_pretenured g (record_hdr ~mask:1 1) ~birth:0
  in
  Mem.Memory.set mem (H.field_addr old_obj 0) (V.Ptr young);
  globals.(0) <- V.Ptr old_obj;
  check_bool "pretenured in tenured" true
    (Collectors.Generational.in_tenured g old_obj);
  Collectors.Generational.minor g;
  let young' = V.to_addr (Mem.Memory.get mem (H.field_addr old_obj 0)) in
  check_bool "young promoted by region scan" true
    (Collectors.Generational.in_tenured g young');
  check_int "payload" 55 (V.to_int (Mem.Memory.get mem (H.field_addr young' 0)));
  check_bool "region scan accounted" true
    (stats.Collectors.Gc_stats.words_region_scanned > 0)

let gen_scan_elision_skips () =
  (* with site_needs_scan = false the region scan skips the object; its
     young referent is then (unsoundly, by design of the test) lost *)
  let globals = Array.make 1 V.zero in
  let mem = Mem.Memory.create () in
  let stats = Collectors.Gc_stats.create () in
  let hooks =
    { (global_hooks globals) with Collectors.Hooks.site_needs_scan = (fun _ -> false) }
  in
  let g =
    Collectors.Generational.create mem ~hooks ~stats
      { (Collectors.Generational.default_config ~budget_bytes:(256 * 1024)) with
        Collectors.Generational.nursery_bytes_max = 8 * 1024 }
  in
  let old_obj =
    Collectors.Generational.alloc_pretenured g (record_hdr ~mask:0 ~site:7 1)
      ~birth:0
  in
  globals.(0) <- V.Ptr old_obj;
  Collectors.Generational.minor g;
  check_int "region words skipped" 4 stats.Collectors.Gc_stats.words_region_skipped;
  check_int "none scanned" 0 stats.Collectors.Gc_stats.words_region_scanned

let gen_survives_many_collections () =
  let globals = Array.make 4 V.zero in
  let mem, g, stats = gen globals in
  (* a persistent list in globals.(0), garbage elsewhere *)
  let prng = Support.Prng.create ~seed:42 in
  for i = 1 to 3000 do
    let keep = Support.Prng.int prng 10 = 0 in
    let hdr = record_hdr ~mask:2 2 in
    let a = Collectors.Generational.alloc g hdr ~birth:0 in
    Mem.Memory.set mem (H.field_addr a 0) (V.Int i);
    Mem.Memory.set mem (H.field_addr a 1) globals.(0);
    if keep then globals.(0) <- V.Ptr a
  done;
  check_bool "many gcs" true (stats.Collectors.Gc_stats.minor_gcs > 5);
  (* walk the list and verify the kept values are descending *)
  let rec walk v last count =
    match v with
    | V.Ptr a when not (Mem.Addr.is_null a) ->
      let x = V.to_int (Mem.Memory.get mem (H.field_addr a 0)) in
      check_bool "descending" true (x < last);
      walk (Mem.Memory.get mem (H.field_addr a 1)) x (count + 1)
    | V.Ptr _ | V.Int _ -> count
  in
  let n = walk globals.(0) max_int 0 in
  check_bool "kept a sensible number" true (n > 200 && n < 400)

let card_table_unit () =
  let ct = Collectors.Card_table.create ~space_words:1024 in
  check_int "no marks" 0 (Collectors.Card_table.marked_count ct);
  Collectors.Card_table.record ct ~offset:70;
  Collectors.Card_table.record ct ~offset:71;   (* same card *)
  Collectors.Card_table.record ct ~offset:700;
  check_int "dedup within card" 2 (Collectors.Card_table.marked_count ct);
  check_int "traffic counted" 3 (Collectors.Card_table.total_recorded ct);
  Alcotest.(check (list int)) "cards" [ 1; 10 ]
    (Collectors.Card_table.marked_cards ct);
  (* cover: objects of 40 words back to back from offset 0 *)
  Collectors.Card_table.cover ct (fun f ->
    let off = ref 0 in
    for _ = 1 to 20 do
      f ~offset:!off ~words:40;
      off := !off + 40
    done);
  (* card 1 spans words 64..128: the object at 40 covers its start *)
  check_bool "crossing for card 1" true
    (Collectors.Card_table.crossing ct 1 = Some 40);
  let lo, hi = Collectors.Card_table.card_range ct 1 in
  check_int "window lo" 64 lo;
  check_int "window hi" 128 hi;
  Collectors.Card_table.clear_marks ct;
  check_int "cleared" 0 (Collectors.Card_table.marked_count ct)

let card_barrier_keeps_edge threshold () =
  (* same scenario as the write-barrier test, under cards; under an aging
     nursery the edge must stay remembered, through every minor that
     keeps its target young, until the target is promoted *)
  let globals = Array.make 1 V.zero in
  let mem, g, _ =
    gen ~barrier:Collectors.Generational.Barrier_cards ~threshold globals
  in
  let holder = Collectors.Generational.alloc g (record_hdr ~mask:1 1) ~birth:0 in
  globals.(0) <- V.Ptr holder;
  for _ = 1 to threshold do
    Collectors.Generational.minor g
  done;
  let holder = V.to_addr globals.(0) in
  check_bool "holder tenured" true (Collectors.Generational.in_tenured g holder);
  let young = Collectors.Generational.alloc g (record_hdr ~mask:0 1) ~birth:0 in
  Mem.Memory.set mem (H.field_addr young 0) (V.Int 321);
  let loc = H.field_addr holder 0 in
  Mem.Memory.set mem loc (V.Ptr young);
  Collectors.Generational.record_update g ~obj:holder ~loc;
  let young' () = V.to_addr (Mem.Memory.get mem (H.field_addr holder 0)) in
  for i = 1 to threshold do
    Collectors.Generational.minor g;
    check_int (Printf.sprintf "payload after minor %d" i) 321
      (V.to_int (Mem.Memory.get mem (H.field_addr (young' ()) 0)))
  done;
  check_bool "young promoted via card scan" true
    (Collectors.Generational.in_tenured g (young' ()));
  (* a further minor with no new marks must not crash or re-copy *)
  Collectors.Generational.minor g

let aging_nursery_delays_promotion () =
  let globals = Array.make 1 V.zero in
  let mem, g, stats = gen ~threshold:3 globals in
  let a = Collectors.Generational.alloc g (record_hdr ~mask:0 1) ~birth:0 in
  Mem.Memory.set mem (H.field_addr a 0) (V.Int 31);
  globals.(0) <- V.Ptr a;
  (* two minors: survives in the nursery, aging *)
  Collectors.Generational.minor g;
  let a1 = V.to_addr globals.(0) in
  check_bool "still young after one gc" true
    (Collectors.Generational.in_nursery g a1);
  check_int "age 1" 1 (Mem.Header.age mem a1);
  Collectors.Generational.minor g;
  let a2 = V.to_addr globals.(0) in
  check_bool "still young after two" true
    (Collectors.Generational.in_nursery g a2);
  check_int "age 2" 2 (Mem.Header.age mem a2);
  (* third minor promotes *)
  Collectors.Generational.minor g;
  let a3 = V.to_addr globals.(0) in
  check_bool "promoted at the threshold" true
    (Collectors.Generational.in_tenured g a3);
  check_int "payload intact" 31 (V.to_int (Mem.Memory.get mem (H.field_addr a3 0)));
  (* the object was copied three times but promoted once *)
  check_int "copied three times" (3 * 4) stats.Collectors.Gc_stats.words_copied;
  check_int "promoted once" 4 stats.Collectors.Gc_stats.words_promoted

let aging_copies_more_than_immediate () =
  (* the motivation for pretenuring under aging policies: long-lived data
     is copied [threshold] times instead of once *)
  let run threshold =
    let globals = Array.make 1 V.zero in
    let mem, g, stats = gen ~threshold globals in
    for i = 1 to 400 do
      let a = Collectors.Generational.alloc g (record_hdr ~mask:2 2) ~birth:0 in
      Mem.Memory.set mem (H.field_addr a 0) (V.Int i);
      Mem.Memory.set mem (H.field_addr a 1) globals.(0);
      globals.(0) <- V.Ptr a
    done;
    stats.Collectors.Gc_stats.words_copied
  in
  let c1 = run 1 and c3 = run 3 in
  check_bool "aging copies substantially more" true (c3 > c1 * 2)

let pretenured_to_los_edge () =
  (* a pretenured record pointing at a large object: the major trace must
     mark the large object through the tenured record *)
  let globals = Array.make 1 V.zero in
  let mem, g, _ = gen globals in
  let big =
    Collectors.Generational.alloc g
      { H.kind = H.Nonptr_array; len = 600; site = 9 } ~birth:0
  in
  let holder =
    Collectors.Generational.alloc_pretenured g (record_hdr ~mask:1 1) ~birth:0
  in
  Mem.Memory.set mem (H.field_addr holder 0) (V.Ptr big);
  globals.(0) <- V.Ptr holder;
  Collectors.Generational.full g;
  (* the large object survived because the tenured record references it *)
  let holder = V.to_addr globals.(0) in
  let big' = V.to_addr (Mem.Memory.get mem (H.field_addr holder 0)) in
  check_bool "large object survived the sweep" true
    (Mem.Memory.live_block mem big');
  check_bool "large objects do not move" true (Mem.Addr.equal big big');
  (* dropping the holder lets the next full collection sweep it *)
  globals.(0) <- V.zero;
  Collectors.Generational.full g;
  check_int "everything swept" 0 (Collectors.Generational.live_words g)

(* --- safe vs raw collector paths --- *)

(* Every deterministic counter of Gc_stats (timers excluded): the raw
   fast paths must produce the exact same work profile as the safe
   reference implementation. *)
let counters (s : Collectors.Gc_stats.t) =
  [ "minor_gcs", s.Collectors.Gc_stats.minor_gcs;
    "major_gcs", s.Collectors.Gc_stats.major_gcs;
    "words_allocated", s.Collectors.Gc_stats.words_allocated;
    "words_alloc_records", s.Collectors.Gc_stats.words_alloc_records;
    "words_alloc_arrays", s.Collectors.Gc_stats.words_alloc_arrays;
    "objects_allocated", s.Collectors.Gc_stats.objects_allocated;
    "words_copied", s.Collectors.Gc_stats.words_copied;
    "words_promoted", s.Collectors.Gc_stats.words_promoted;
    "words_pretenured", s.Collectors.Gc_stats.words_pretenured;
    "words_region_scanned", s.Collectors.Gc_stats.words_region_scanned;
    "words_region_skipped", s.Collectors.Gc_stats.words_region_skipped;
    "words_los_freed", s.Collectors.Gc_stats.words_los_freed;
    "max_live_words", s.Collectors.Gc_stats.max_live_words;
    "live_words_after_gc", s.Collectors.Gc_stats.live_words_after_gc;
    "pointer_updates", s.Collectors.Gc_stats.pointer_updates;
    "words_scanned", Collectors.Gc_stats.words_scanned s;
    "barrier_entries_processed",
    s.Collectors.Gc_stats.barrier_entries_processed;
    "roots_visited", s.Collectors.Gc_stats.roots_visited ]

(* A mutation-heavy generational workload: a persistent list, barriered
   old->young stores, pretenured allocations holding young pointers, and
   an occasional large object.  Returns the stats counters plus a
   fingerprint of the surviving heap. *)
let run_gen_workload ?(parallelism = 1) ?mode ?(budget = 256 * 1024)
    ?tenured_backend ?los_backend ?major_kind ?eager ~raw ~barrier ~threshold
    () =
  Collectors.Cheney.use_raw := raw;
  Fun.protect ~finally:(fun () -> Collectors.Cheney.use_raw := true)
  @@ fun () ->
  let globals = Array.make 4 V.zero in
  let mem, g, stats =
    gen ~budget ~barrier ~threshold ~parallelism ?mode ?tenured_backend
      ?los_backend ?major_kind ?eager globals
  in
  let prng = Support.Prng.create ~seed:7 in
  for i = 1 to 2500 do
    let keep = Support.Prng.int prng 10 = 0 in
    let a = Collectors.Generational.alloc g (record_hdr ~mask:2 2) ~birth:i in
    Mem.Memory.set mem (H.field_addr a 0) (V.Int i);
    Mem.Memory.set mem (H.field_addr a 1) globals.(0);
    if keep then globals.(0) <- V.Ptr a;
    (* barriered old->young store into a pretenured holder *)
    (if i mod 7 = 3 then
       match globals.(2) with
       | V.Ptr holder when Collectors.Generational.in_tenured g holder ->
         let loc = H.field_addr holder 0 in
         Mem.Memory.set mem loc (V.Ptr a);
         Collectors.Generational.record_update g ~obj:holder ~loc
       | V.Ptr _ | V.Int _ -> ());
    if i mod 97 = 0 then begin
      let p =
        Collectors.Generational.alloc_pretenured g (record_hdr ~mask:1 1)
          ~birth:i
      in
      Mem.Memory.set mem (H.field_addr p 0) globals.(0);
      Collectors.Generational.record_update g ~obj:p ~loc:(H.field_addr p 0);
      globals.(2) <- V.Ptr p
    end;
    if i mod 501 = 0 then
      globals.(3) <-
        V.Ptr
          (Collectors.Generational.alloc g
             { H.kind = H.Ptr_array; len = 600; site = 4 }
             ~birth:i)
  done;
  Collectors.Generational.full g;
  let rec fingerprint v acc =
    match v with
    | V.Ptr a when not (Mem.Addr.is_null a) ->
      fingerprint
        (Mem.Memory.get mem (H.field_addr a 1))
        (V.to_int (Mem.Memory.get mem (H.field_addr a 0)) :: acc)
    | V.Ptr _ | V.Int _ -> acc
  in
  (counters stats, fingerprint globals.(0) [])

let safe_raw_identical_stats () =
  List.iter
    (fun (name, barrier, threshold) ->
      let stats_safe, heap_safe =
        run_gen_workload ~raw:false ~barrier ~threshold ()
      in
      let stats_raw, heap_raw =
        run_gen_workload ~raw:true ~barrier ~threshold ()
      in
      Alcotest.(check (list (pair string int)))
        (name ^ ": identical Gc_stats counters")
        stats_safe stats_raw;
      Alcotest.(check (list int))
        (name ^ ": identical surviving heap")
        heap_safe heap_raw)
    [ ("ssb", Collectors.Generational.Barrier_ssb, 1);
      ("remset", Collectors.Generational.Barrier_remset, 1);
      ("cards", Collectors.Generational.Barrier_cards, 1);
      ("ssb+aging", Collectors.Generational.Barrier_ssb, 3);
      ("remset+aging", Collectors.Generational.Barrier_remset, 3);
      ("cards+aging", Collectors.Generational.Barrier_cards, 3) ]

let safe_raw_identical_semispace () =
  let run raw =
    Collectors.Cheney.use_raw := raw;
    Fun.protect ~finally:(fun () -> Collectors.Cheney.use_raw := true)
    @@ fun () ->
    let globals = Array.make 2 V.zero in
    let mem, s = semi ~budget:(64 * 1024) globals in
    for i = 1 to 800 do
      let a = Collectors.Semispace.alloc s (record_hdr ~mask:2 2) ~birth:i in
      Mem.Memory.set mem (H.field_addr a 0) (V.Int i);
      Mem.Memory.set mem (H.field_addr a 1) globals.(0);
      if i mod 5 = 0 then globals.(0) <- V.Ptr a
    done;
    Collectors.Semispace.collect s;
    (counters (Collectors.Semispace.stats s), Collectors.Semispace.live_words s)
  in
  let cs, ls = run false in
  let cr, lr = run true in
  Alcotest.(check (list (pair string int))) "identical counters" cs cr;
  check_int "identical live words" ls lr

(* --- the parallel drain engine (Par_drain) --- *)

(* The equivalence runs use a budget big enough that the filler words
   padding retired chunks never push tenured occupancy over a collection
   trigger: both engines must see the same collection schedule or the
   counters diverge trivially. *)
let par_budget = 1024 * 1024

let par_seq_identical_stats () =
  List.iter
    (fun (name, barrier, drop) ->
      let filter l = List.filter (fun (k, _) -> not (List.mem k drop)) l in
      let stats_seq, heap_seq =
        run_gen_workload ~budget:par_budget ~raw:true ~barrier ~threshold:1 ()
      in
      List.iter
        (fun p ->
          let stats_par, heap_par =
            run_gen_workload ~parallelism:p ~budget:par_budget ~raw:true
              ~barrier ~threshold:1 ()
          in
          let label = Printf.sprintf "%s p=%d" name p in
          Alcotest.(check (list (pair string int)))
            (label ^ ": identical Gc_stats counters")
            (filter stats_seq) (filter stats_par);
          Alcotest.(check (list int))
            (label ^ ": identical surviving heap")
            heap_seq heap_par)
        [ 2; 4 ])
    [ ("ssb", Collectors.Generational.Barrier_ssb, []);
      ("remset", Collectors.Generational.Barrier_remset, []);
      (* card geometry depends on tenured addresses, and the parallel
         drain's chunk fillers shift those, so which two stores share a
         dirty card is the one counter that may legitimately differ *)
      ("cards", Collectors.Generational.Barrier_cards,
       [ "barrier_entries_processed" ]) ]

let par_seq_identical_semispace () =
  let run parallelism =
    let globals = Array.make 2 V.zero in
    let mem = Mem.Memory.create () in
    let stats = Collectors.Gc_stats.create () in
    let s =
      Collectors.Semispace.create mem ~hooks:(global_hooks globals) ~stats
        { (Collectors.Semispace.default_config ~budget_bytes:(256 * 1024)) with
          Collectors.Semispace.parallelism }
    in
    for i = 1 to 800 do
      let a = Collectors.Semispace.alloc s (record_hdr ~mask:2 2) ~birth:i in
      Mem.Memory.set mem (H.field_addr a 0) (V.Int i);
      Mem.Memory.set mem (H.field_addr a 1) globals.(0);
      if i mod 5 = 0 then globals.(0) <- V.Ptr a
    done;
    Collectors.Semispace.collect s;
    (counters stats, Collectors.Semispace.live_words s)
  in
  let cs, ls = run 1 in
  List.iter
    (fun p ->
      let cp, lp = run p in
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "p=%d identical counters" p)
        cs cp;
      check_int (Printf.sprintf "p=%d identical live words" p) ls lp)
    [ 2; 4 ]

(* Real-domain equivalence: the same workload drained by true OCaml 5
   domains must land on the same heap and the same
   placement-independent counters as the sequential oracle AND the
   virtual run — whatever interleaving the host scheduler produced.
   Chunk-filler slop is scheduling-dependent in Real mode, so the card
   barrier additionally drops the geometry-dependent entry counter,
   exactly as the virtual equivalence run does. *)
let real_seq_identical_stats () =
  List.iter
    (fun (name, barrier, drop) ->
      let filter l = List.filter (fun (k, _) -> not (List.mem k drop)) l in
      let stats_seq, heap_seq =
        run_gen_workload ~budget:par_budget ~raw:true ~barrier ~threshold:1 ()
      in
      List.iter
        (fun p ->
          let stats_virt, heap_virt =
            run_gen_workload ~parallelism:p ~budget:par_budget ~raw:true
              ~barrier ~threshold:1 ()
          in
          let stats_real, heap_real =
            run_gen_workload ~parallelism:p ~mode:Collectors.Par_drain.Real
              ~budget:par_budget ~raw:true ~barrier ~threshold:1 ()
          in
          let label = Printf.sprintf "%s real p=%d" name p in
          Alcotest.(check (list (pair string int)))
            (label ^ ": identical counters vs sequential")
            (filter stats_seq) (filter stats_real);
          Alcotest.(check (list (pair string int)))
            (label ^ ": identical counters vs virtual")
            (filter stats_virt) (filter stats_real);
          Alcotest.(check (list int))
            (label ^ ": identical surviving heap vs sequential")
            heap_seq heap_real;
          Alcotest.(check (list int))
            (label ^ ": identical surviving heap vs virtual")
            heap_virt heap_real)
        [ 2; 4 ])
    [ ("ssb", Collectors.Generational.Barrier_ssb, []);
      ("remset", Collectors.Generational.Barrier_remset, []);
      ("cards", Collectors.Generational.Barrier_cards,
       [ "barrier_entries_processed" ]) ]

let real_seq_identical_semispace () =
  let run parallelism mode =
    let globals = Array.make 2 V.zero in
    let mem = Mem.Memory.create () in
    let stats = Collectors.Gc_stats.create () in
    let s =
      Collectors.Semispace.create mem ~hooks:(global_hooks globals) ~stats
        { (Collectors.Semispace.default_config ~budget_bytes:(256 * 1024)) with
          Collectors.Semispace.parallelism;
          parallelism_mode = mode }
    in
    for i = 1 to 800 do
      let a = Collectors.Semispace.alloc s (record_hdr ~mask:2 2) ~birth:i in
      Mem.Memory.set mem (H.field_addr a 0) (V.Int i);
      Mem.Memory.set mem (H.field_addr a 1) globals.(0);
      if i mod 5 = 0 then globals.(0) <- V.Ptr a
    done;
    Collectors.Semispace.collect s;
    (counters stats, Collectors.Semispace.live_words s)
  in
  let cs, ls = run 1 Collectors.Par_drain.Virtual in
  List.iter
    (fun p ->
      let cp, lp = run p Collectors.Par_drain.Real in
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "real p=%d identical counters" p)
        cs cp;
      check_int (Printf.sprintf "real p=%d identical live words" p) ls lp)
    [ 2; 4 ]

(* trace-level equivalence: per-site survival tallies must not depend on
   which domain copied the object, and parallel runs must publish their
   per-domain [copy.dN] phase spans *)
let trace_int_field line key =
  let pat = "\"" ^ key ^ "\":" in
  let n = String.length line and m = String.length pat in
  let rec find i =
    if i + m > n then Alcotest.fail ("trace line missing " ^ key)
    else if String.sub line i m = pat then i + m
    else find (i + 1)
  in
  let i = find 0 in
  let j = ref i in
  while
    !j < n && (match line.[!j] with '0' .. '9' | '-' -> true | _ -> false)
  do
    incr j
  done;
  int_of_string (String.sub line i (!j - i))

let traced_run ~parallelism ~barrier =
  let buf = Buffer.create (1 lsl 16) in
  let t = ref 0.0 in
  let clock () =
    t := !t +. 1e-6;
    !t
  in
  let counters_and_heap =
    Obs.Trace.with_buffer ~clock buf (fun () ->
      run_gen_workload ~parallelism ~budget:par_budget ~raw:true ~barrier
        ~threshold:1 ())
  in
  let lines = String.split_on_char '\n' (Buffer.contents buf) in
  let survivals =
    List.filter_map
      (fun l ->
        if String.length l = 0 then None
        else
          let is_survival =
            (* every record carries its type in "ev" *)
            let rec has i =
              let pat = "\"ev\":\"site_survival\"" in
              let m = String.length pat in
              i + m <= String.length l
              && (String.sub l i m = pat || has (i + 1))
            in
            has 0
          in
          if not is_survival then None
          else
            Some
              (Printf.sprintf "gc=%d site=%d objects=%d words=%d"
                 (trace_int_field l "gc") (trace_int_field l "site")
                 (trace_int_field l "objects") (trace_int_field l "words")))
      lines
  in
  (counters_and_heap, survivals, lines)

let par_seq_identical_site_survival () =
  let barrier = Collectors.Generational.Barrier_ssb in
  let (stats_seq, heap_seq), surv_seq, _ = traced_run ~parallelism:1 ~barrier in
  List.iter
    (fun p ->
      let (stats_par, heap_par), surv_par, lines =
        traced_run ~parallelism:p ~barrier
      in
      let label = Printf.sprintf "traced p=%d" p in
      Alcotest.(check (list (pair string int)))
        (label ^ ": identical counters") stats_seq stats_par;
      Alcotest.(check (list int)) (label ^ ": identical heap") heap_seq heap_par;
      Alcotest.(check (list string))
        (label ^ ": identical site_survival records")
        surv_seq surv_par;
      (* the per-domain spans are published for every worker *)
      for d = 0 to p - 1 do
        let span = Printf.sprintf "\"name\":\"copy.d%d\"" d in
        check_bool
          (Printf.sprintf "%s: has %s span" label span)
          true
          (List.exists
             (fun l ->
               let n = String.length l and m = String.length span in
               let rec has i =
                 i + m <= n && (String.sub l i m = span || has (i + 1))
               in
               has 0)
             lines)
      done)
    [ 2; 4 ]

(* --- allocation backends --- *)

(* Swept large-object words must be reusable under the reusing backends
   and measurably lost under bump. *)
let los_backend_reuse () =
  let run backend =
    let mem = Mem.Memory.create () in
    let los = Collectors.Los.create ~backend mem in
    let hdr = { H.kind = H.Nonptr_array; len = 600; site = 1 } in
    let a = Collectors.Los.alloc los hdr ~birth:0 in
    let b = Collectors.Los.alloc los hdr ~birth:0 in
    ignore (Collectors.Los.mark los a);
    let freed = Collectors.Los.sweep los ~on_die:(fun ~site:_ ~birth:_ ~words:_ -> ()) in
    check_int "sweep freed b" 603 freed;
    let c = Collectors.Los.alloc los hdr ~birth:0 in
    let frag = Collectors.Los.frag los in
    (b, c, frag)
  in
  (* free_list and size_class (oversize path) reuse b's hole exactly *)
  List.iter
    (fun backend ->
      let b, c, frag = run backend in
      let name = Alloc.Backend.kind_name backend in
      check_bool (name ^ " reuses the swept hole") true (Mem.Addr.equal b c);
      check_int (name ^ " leaves no free words") 0
        frag.Alloc.Backend.free_words)
    [ Alloc.Backend.Free_list; Alloc.Backend.Size_class ];
  (* bump never reuses: the swept grant stays a dead hole *)
  let b, c, frag = run Alloc.Backend.Bump in
  check_bool "bump does not reuse" false (Mem.Addr.equal b c);
  check_int "bump reports the dead words" 603 frag.Alloc.Backend.free_words;
  check_int "bump reports one hole" 1 frag.Alloc.Backend.free_blocks

(* The full mutation workload must produce bit-identical Gc_stats and
   surviving heap under every (tenured_backend, los_backend) pair:
   tenured objects are only reclaimed by whole-space compaction, so every
   tenured backend degenerates to frontier bumping, and the collection
   schedule depends only on live words, never on large-object
   placement. *)
let backend_matrix_equivalence () =
  let barrier = Collectors.Generational.Barrier_ssb in
  let stats_ref, heap_ref =
    run_gen_workload ~raw:true ~barrier ~threshold:1 ()
  in
  List.iter
    (fun tb ->
      List.iter
        (fun lb ->
          let stats, heap =
            run_gen_workload ~tenured_backend:tb ~los_backend:lb ~raw:true
              ~barrier ~threshold:1 ()
          in
          let label =
            Printf.sprintf "tenured=%s los=%s" (Alloc.Backend.kind_name tb)
              (Alloc.Backend.kind_name lb)
          in
          Alcotest.(check (list (pair string int)))
            (label ^ ": identical Gc_stats counters")
            stats_ref stats;
          Alcotest.(check (list int))
            (label ^ ": identical surviving heap")
            heap_ref heap)
        Alloc.Backend.all_kinds)
    Alloc.Backend.all_kinds

(* the equivalence must also hold under aging, the card barrier, and the
   parallel drain engine — the other axes of the GC test matrix *)
let backend_matrix_other_axes () =
  List.iter
    (fun (name, barrier, threshold, parallelism) ->
      let stats_ref, heap_ref =
        run_gen_workload ~parallelism ~budget:par_budget ~raw:true ~barrier
          ~threshold ()
      in
      List.iter
        (fun (tb, lb) ->
          let stats, heap =
            run_gen_workload ~parallelism ~budget:par_budget
              ~tenured_backend:tb ~los_backend:lb ~raw:true ~barrier
              ~threshold ()
          in
          let label =
            Printf.sprintf "%s tenured=%s los=%s" name
              (Alloc.Backend.kind_name tb) (Alloc.Backend.kind_name lb)
          in
          Alcotest.(check (list (pair string int)))
            (label ^ ": identical Gc_stats counters")
            stats_ref stats;
          Alcotest.(check (list int))
            (label ^ ": identical surviving heap")
            heap_ref heap)
        [ (Alloc.Backend.Free_list, Alloc.Backend.Bump);
          (Alloc.Backend.Size_class, Alloc.Backend.Size_class) ])
    [ ("cards+aging", Collectors.Generational.Barrier_cards, 3, 1);
      ("ssb p=2", Collectors.Generational.Barrier_ssb, 1, 2) ]

(* --- backend properties (qcheck) --- *)

(* Random alloc/free interleavings against a growable backend: grants
   never overlap each other, freeing everything restores [live_words] to
   zero, and the coalescing free list collapses adjacent holes. *)
let backend_no_overlap_prop =
  QCheck.Test.make ~name:"backend grants never overlap" ~count:80
    QCheck.(
      triple (int_range 0 1000000) (int_range 1 120)
        (oneofl Alloc.Backend.[ Bump; Free_list; Size_class ]))
    (fun (seed, ops, kind) ->
      let mem = Mem.Memory.create () in
      let be = Alloc.Registry.growable kind mem ~segment_words:512 in
      let prng = Support.Prng.create ~seed in
      let live = Hashtbl.create 32 in (* base -> words *)
      let granted = ref 0 in
      let ok = ref true in
      let overlaps base words =
        Hashtbl.fold
          (fun b w acc ->
            acc
            || Mem.Addr.block b = Mem.Addr.block base
               && Mem.Addr.offset base < Mem.Addr.offset b + w
               && Mem.Addr.offset b < Mem.Addr.offset base + words)
          live false
      in
      for _ = 1 to ops do
        if Support.Prng.int prng 3 < 2 || Hashtbl.length live = 0 then begin
          let words = 3 + Support.Prng.int prng 60 in
          match Alloc.Backend.alloc be words with
          | None -> ok := false (* growable backends never refuse *)
          | Some base ->
            if overlaps base words then ok := false;
            if not (Alloc.Backend.contains be base) then ok := false;
            Hashtbl.replace live base words;
            granted := !granted + words
        end
        else begin
          (* free a pseudo-random live grant *)
          let n = Support.Prng.int prng (Hashtbl.length live) in
          let victim = ref None in
          let i = ref 0 in
          Hashtbl.iter
            (fun b w ->
              if !i = n then victim := Some (b, w);
              incr i)
            live;
          match !victim with
          | None -> ()
          | Some (b, w) ->
            Alloc.Backend.free be b ~words:w;
            Hashtbl.remove live b;
            granted := !granted - w
        end
      done;
      if Alloc.Backend.live_words be <> !granted then ok := false;
      (* drain: freeing every survivor must restore live_words = 0 *)
      Hashtbl.iter (fun b w -> Alloc.Backend.free be b ~words:w) live;
      if Alloc.Backend.live_words be <> 0 then ok := false;
      Alloc.Backend.destroy be;
      !ok)

(* free + coalesce: freeing a contiguous run of grants in any order must
   merge them into one hole of the full width (free list only — the
   size-class buckets deliberately do not coalesce) *)
let free_list_coalesce_prop =
  QCheck.Test.make ~name:"free list coalesces adjacent holes" ~count:80
    QCheck.(pair (int_range 0 1000000) (int_range 2 12))
    (fun (seed, n) ->
      let mem = Mem.Memory.create () in
      let space = Mem.Space.create mem ~words:4096 in
      let fl = Alloc.Free_list.of_space mem space in
      let prng = Support.Prng.create ~seed in
      let words = Array.init n (fun _ -> 3 + Support.Prng.int prng 20) in
      let grants =
        Array.map
          (fun w ->
            match Alloc.Free_list.alloc fl w with
            | Some b -> (b, w)
            | None -> QCheck.assume_fail ())
          words
      in
      let total = Array.fold_left (fun acc (_, w) -> acc + w) 0 grants in
      (* free in a random order *)
      let order = Array.init n (fun i -> i) in
      for i = n - 1 downto 1 do
        let j = Support.Prng.int prng (i + 1) in
        let t = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- t
      done;
      Array.iter
        (fun i ->
          let b, w = grants.(i) in
          Alloc.Free_list.free fl b ~words:w)
        order;
      let frag = Alloc.Free_list.frag fl in
      frag.Alloc.Backend.free_words = total
      && frag.Alloc.Backend.free_blocks = 1
      && frag.Alloc.Backend.largest_hole = total
      && Alloc.Free_list.live_words fl = 0)

(* size-class fallback: requests wider than the top class round-trip
   through the oversize coalescing list, and a small request never
   splits an oversize hole (it falls back to the frontier) *)
let size_class_fallback_prop =
  QCheck.Test.make ~name:"size-class oversize fallback is correct" ~count:80
    QCheck.(pair (int_range 0 1000000) (int_range 300 900))
    (fun (seed, big) ->
      let mem = Mem.Memory.create () in
      let sc = Alloc.Size_class.growable mem ~segment_words:4096 in
      let prng = Support.Prng.create ~seed in
      let b1 =
        match Alloc.Size_class.alloc sc big with
        | Some b -> b
        | None -> QCheck.assume_fail ()
      in
      Alloc.Size_class.free sc b1 ~words:big;
      (* a small grant must not carve the oversize hole *)
      let small = 3 + Support.Prng.int prng 10 in
      let s =
        match Alloc.Size_class.alloc sc small with
        | Some b -> b
        | None -> QCheck.assume_fail ()
      in
      let frag_after_small = Alloc.Size_class.frag sc in
      (* the oversize hole is reused exactly by an equal request *)
      let b2 =
        match Alloc.Size_class.alloc sc big with
        | Some b -> b
        | None -> QCheck.assume_fail ()
      in
      (not (Mem.Addr.equal s b1))
      && frag_after_small.Alloc.Backend.free_words = big
      && Mem.Addr.equal b1 b2
      && Alloc.Size_class.frag sc |> fun f ->
         f.Alloc.Backend.free_words = 0)

(* walkability: after any interleaving, a linear walk of the backend
   visits fillers and live objects covering the region exactly *)
let backend_walkable_prop =
  QCheck.Test.make ~name:"backends keep regions walkable" ~count:60
    QCheck.(
      pair (int_range 0 1000000)
        (oneofl Alloc.Backend.[ Bump; Free_list; Size_class ]))
    (fun (seed, kind) ->
      let mem = Mem.Memory.create () in
      let space = Mem.Space.create mem ~words:2048 in
      let be = Alloc.Registry.of_space kind mem space in
      let prng = Support.Prng.create ~seed in
      let live = ref [] in
      for i = 1 to 60 do
        let words = (H.header_words ()) + Support.Prng.int prng 12 in
        (match Alloc.Backend.alloc be words with
         | None -> ()
         | Some base ->
           H.write mem base
             { H.kind = H.Nonptr_array; len = words - (H.header_words ());
               site = i }
             ~birth:0;
           live := (base, words) :: !live);
        if Support.Prng.int prng 3 = 0 && !live <> [] then begin
          let b, w = List.hd !live in
          Alloc.Backend.free be b ~words:w;
          live := List.tl !live
        end
      done;
      (* the walk must cover used_words exactly, fillers included, and
         report each live object at its base *)
      let walked = ref 0 in
      let seen = Hashtbl.create 32 in
      Alloc.Backend.iter_objects be (fun a ->
        let cells = Mem.Memory.cells mem a in
        let w = H.object_words_c cells ~off:(Mem.Addr.offset a) in
        walked := !walked + w;
        if not (H.is_filler_c cells ~off:(Mem.Addr.offset a)) then
          Hashtbl.replace seen a ());
      !walked = Mem.Space.used_words space
      && List.for_all (fun (b, _) -> Hashtbl.mem seen b) !live
      && Hashtbl.length seen = List.length !live)

(* --- the mark-sweep major --- *)

(* Counters driven purely by the mutator: identical whatever the major
   strategy does, because the workload (not the collector) decides every
   allocation and pointer store.  Schedule-dependent counters
   (words_copied, gc counts, ...) legitimately differ between the
   copying and mark-sweep majors and are excluded. *)
let mutator_side = function
  | "words_allocated" | "objects_allocated" | "words_alloc_records"
  | "words_alloc_arrays" | "words_pretenured" | "pointer_updates" ->
    true
  | _ -> false

let ms_equivalent_live_set () =
  List.iter
    (fun (name, barrier, threshold, backend, raw) ->
      let stats_c, heap_c =
        run_gen_workload ~raw ~barrier ~threshold ~tenured_backend:backend ()
      in
      let stats_m, heap_m =
        run_gen_workload ~raw ~barrier ~threshold ~tenured_backend:backend
          ~major_kind:Collectors.Generational.Mark_sweep ()
      in
      Alcotest.(check (list int))
        (name ^ ": identical surviving heap")
        heap_c heap_m;
      let pick = List.filter (fun (k, _) -> mutator_side k) in
      Alcotest.(check (list (pair string int)))
        (name ^ ": identical mutator-side counters")
        (pick stats_c) (pick stats_m))
    [ ("ssb/bump", Collectors.Generational.Barrier_ssb, 1,
       Alloc.Backend.Bump, true);
      ("ssb/free_list", Collectors.Generational.Barrier_ssb, 1,
       Alloc.Backend.Free_list, true);
      ("ssb/size_class", Collectors.Generational.Barrier_ssb, 1,
       Alloc.Backend.Size_class, true);
      ("remset/free_list", Collectors.Generational.Barrier_remset, 1,
       Alloc.Backend.Free_list, true);
      ("cards/free_list", Collectors.Generational.Barrier_cards, 1,
       Alloc.Backend.Free_list, true);
      ("cards+aging/free_list", Collectors.Generational.Barrier_cards, 3,
       Alloc.Backend.Free_list, true);
      ("ssb+aging/free_list", Collectors.Generational.Barrier_ssb, 3,
       Alloc.Backend.Free_list, true);
      ("ssb/free_list/safe", Collectors.Generational.Barrier_ssb, 1,
       Alloc.Backend.Free_list, false) ]

(* marking reads through the same Memory API switch as copying: the safe
   and raw paths must agree bit-for-bit under the mark-sweep major too *)
let ms_safe_raw_identical () =
  List.iter
    (fun (name, barrier, threshold) ->
      let run raw =
        run_gen_workload ~raw ~barrier ~threshold
          ~tenured_backend:Alloc.Backend.Free_list
          ~major_kind:Collectors.Generational.Mark_sweep ()
      in
      let stats_safe, heap_safe = run false in
      let stats_raw, heap_raw = run true in
      Alcotest.(check (list (pair string int)))
        (name ^ ": identical Gc_stats counters")
        stats_safe stats_raw;
      Alcotest.(check (list int))
        (name ^ ": identical surviving heap")
        heap_safe heap_raw)
    [ ("ssb", Collectors.Generational.Barrier_ssb, 1);
      ("cards", Collectors.Generational.Barrier_cards, 1);
      ("ssb+aging", Collectors.Generational.Barrier_ssb, 3) ]

(* --- hierarchical (eager-child) evacuation --- *)

(* Eager evacuation is placement-only: same survivors, same copy
   totals, same collection schedule — every Gc_stats counter and the
   surviving heap must match the breadth-first run bit-for-bit.  The
   one exception is the card barrier's entry counter: card geometry
   depends on tenured addresses, which eager placement shifts. *)
let eager_identical_stats () =
  List.iter
    (fun (name, barrier, threshold, parallelism, mode, drop) ->
      let filter l = List.filter (fun (k, _) -> not (List.mem k drop)) l in
      let run eager =
        run_gen_workload ~parallelism ?mode ~budget:par_budget ~raw:true
          ~barrier ~threshold ~eager ()
      in
      let stats_b, heap_b = run false in
      let stats_e, heap_e = run true in
      Alcotest.(check (list (pair string int)))
        (name ^ ": identical Gc_stats counters")
        (filter stats_b) (filter stats_e);
      Alcotest.(check (list int))
        (name ^ ": identical surviving heap")
        heap_b heap_e)
    [ ("ssb", Collectors.Generational.Barrier_ssb, 1, 1, None, []);
      ("remset", Collectors.Generational.Barrier_remset, 1, 1, None, []);
      ("cards", Collectors.Generational.Barrier_cards, 1, 1, None,
       [ "barrier_entries_processed" ]);
      ("ssb+aging", Collectors.Generational.Barrier_ssb, 3, 1, None, []);
      ("ssb p=2", Collectors.Generational.Barrier_ssb, 1, 2, None, []);
      ("cards p=2", Collectors.Generational.Barrier_cards, 1, 2, None,
       [ "barrier_entries_processed" ]);
      ("ssb p=2 real", Collectors.Generational.Barrier_ssb, 1, 2,
       Some Collectors.Par_drain.Real, []) ]

(* --- packed header layout --- *)

let with_layout layout f =
  Mem.Header.set_layout ~birth:false layout;
  Fun.protect ~finally:(fun () -> Mem.Header.set_layout Mem.Header.Classic) f

(* Counters a header-layout change may never move: the workload decides
   every object and pointer store, independent of header size.  Word
   counters include header words, so they legitimately shrink under the
   packed layout; the payload check below removes exactly that. *)
let layout_independent = function
  | "objects_allocated" | "pointer_updates" -> true
  | _ -> false

(* The ISSUE's equivalence matrix: 3 barriers x {copying p=1, copying
   p=2, mark_sweep p=1} (mark_sweep rejects p>1 by construction), each
   cell run under both layouts.  The mutator-visible world — surviving
   heap values, object counts, payload words — must be identical; only
   header overhead may differ. *)
let packed_classic_equivalence () =
  List.iter
    (fun (name, barrier, parallelism, major_kind) ->
      let tenured_backend =
        match major_kind with
        | Collectors.Generational.Copying -> Alloc.Backend.Bump
        | Collectors.Generational.Mark_sweep -> Alloc.Backend.Free_list
      in
      let run layout =
        with_layout layout @@ fun () ->
        run_gen_workload ~parallelism ~budget:par_budget ~raw:true ~barrier
          ~threshold:1 ~major_kind ~tenured_backend ()
      in
      let stats_c, heap_c = run Mem.Header.Classic in
      let stats_p, heap_p = run Mem.Header.Packed in
      Alcotest.(check (list int))
        (name ^ ": identical surviving heap")
        heap_c heap_p;
      let pick = List.filter (fun (k, _) -> layout_independent k) in
      Alcotest.(check (list (pair string int)))
        (name ^ ": identical mutator-side counts")
        (pick stats_c) (pick stats_p);
      let payload stats hw =
        List.assoc "words_allocated" stats
        - (hw * List.assoc "objects_allocated" stats)
      in
      Alcotest.(check int)
        (name ^ ": identical payload words allocated")
        (payload stats_c 3) (payload stats_p 1))
    [ ("ssb", Collectors.Generational.Barrier_ssb, 1,
       Collectors.Generational.Copying);
      ("remset", Collectors.Generational.Barrier_remset, 1,
       Collectors.Generational.Copying);
      ("cards", Collectors.Generational.Barrier_cards, 1,
       Collectors.Generational.Copying);
      ("ssb p=2", Collectors.Generational.Barrier_ssb, 2,
       Collectors.Generational.Copying);
      ("remset p=2", Collectors.Generational.Barrier_remset, 2,
       Collectors.Generational.Copying);
      ("cards p=2", Collectors.Generational.Barrier_cards, 2,
       Collectors.Generational.Copying);
      ("ssb ms", Collectors.Generational.Barrier_ssb, 1,
       Collectors.Generational.Mark_sweep);
      ("remset ms", Collectors.Generational.Barrier_remset, 1,
       Collectors.Generational.Mark_sweep);
      ("cards ms", Collectors.Generational.Barrier_cards, 1,
       Collectors.Generational.Mark_sweep) ]

(* the acceptance path end to end: a mark-sweep major frees dead tenured
   words into the backend, the gauges see the holes, and subsequent
   pretenured allocations are served from them (free words fall with no
   sweep in between) *)
let ms_reclaims_and_reuses_holes () =
  let globals = Array.make 2 V.zero in
  let mem, g, stats =
    gen ~tenured_backend:Alloc.Backend.Free_list
      ~major_kind:Collectors.Generational.Mark_sweep globals
  in
  Alcotest.(check string)
    "stats label" "mark_sweep" stats.Collectors.Gc_stats.major_kind;
  let keep =
    Collectors.Generational.alloc_pretenured g (record_hdr ~mask:0 1) ~birth:0
  in
  Mem.Memory.set mem (H.field_addr keep 0) (V.Int 77);
  globals.(0) <- V.Ptr keep;
  (* a batch of doomed pretenured records: never rooted, they die at the
     first major and must come back as holes *)
  for i = 1 to 60 do
    ignore
      (Collectors.Generational.alloc_pretenured g
         (record_hdr ~site:1 ~mask:0 2) ~birth:i)
  done;
  Collectors.Generational.full g;
  check_bool "sweep freed words" true
    (stats.Collectors.Gc_stats.words_swept_free > 0);
  check_bool "words marked" true (stats.Collectors.Gc_stats.words_marked > 0);
  check_bool "holes visible in the gauges" true
    (stats.Collectors.Gc_stats.tenured_free_words > 0);
  check_bool "survivor address stable" true
    (V.equal globals.(0) (V.Ptr keep));
  check_int "survivor intact" 77
    (V.to_int (Mem.Memory.get mem (H.field_addr keep 0)));
  let free_before = stats.Collectors.Gc_stats.tenured_free_words in
  (* fresh pretenured grants: first-fit serves them from the reclaimed
     holes (address-ordered, below the frontier) *)
  for i = 1 to 10 do
    let p =
      Collectors.Generational.alloc_pretenured g
        (record_hdr ~site:2 ~mask:0 2) ~birth:(100 + i)
    in
    globals.(1) <- V.Ptr p
  done;
  (* an empty-nursery minor only resamples the gauges *)
  Collectors.Generational.minor g;
  check_bool "grants served from reclaimed holes" true
    (stats.Collectors.Gc_stats.tenured_free_words < free_before);
  check_int "survivor still intact" 77
    (V.to_int (Mem.Memory.get mem (H.field_addr keep 0)))

(* property: sweeping never frees a marked (reachable) object, frees
   exactly the reported corpses, and every freed word lands in the
   backend's fragmentation gauges *)
let ms_sweep_safety_prop =
  QCheck.Test.make
    ~name:"mark-sweep sweep frees exactly the unmarked words" ~count:80
    QCheck.(pair (int_range 1 60) (int_range 0 1000000))
    (fun (n, seed) ->
      let mem = Mem.Memory.create () in
      let space = Mem.Space.create mem ~words:4096 in
      let be = Alloc.Registry.of_space Alloc.Backend.Free_list mem space in
      let los = Collectors.Los.create mem in
      let prng = Support.Prng.create ~seed in
      let objs = Array.make n Mem.Addr.null in
      for i = 0 to n - 1 do
        match Alloc.Backend.alloc be ((H.header_words ()) + 3) with
        | None -> QCheck.assume_fail ()
        | Some a ->
          H.write mem a (record_hdr ~mask:0b110 3) ~birth:0;
          Mem.Memory.set mem (H.field_addr a 0) (V.Int (i * 31));
          let pick () =
            if i = 0 || Support.Prng.bool prng then V.null
            else V.Ptr objs.(Support.Prng.int prng i)
          in
          Mem.Memory.set mem (H.field_addr a 1) (pick ());
          Mem.Memory.set mem (H.field_addr a 2) (pick ());
          objs.(i) <- a
      done;
      let roots = Array.init 4 (fun _ -> V.Ptr objs.(Support.Prng.int prng n)) in
      let snapshot () =
        let seen = Hashtbl.create 64 in
        let words = ref 0 and acc = ref [] in
        let rec go v =
          match v with
          | V.Int _ -> ()
          | V.Ptr a ->
            if (not (Mem.Addr.is_null a)) && not (Hashtbl.mem seen a) then begin
              Hashtbl.replace seen a ();
              words := !words + (H.header_words ()) + 3;
              acc := V.to_int (Mem.Memory.get mem (H.field_addr a 0)) :: !acc;
              go (Mem.Memory.get mem (H.field_addr a 1));
              go (Mem.Memory.get mem (H.field_addr a 2))
            end
        in
        Array.iter go roots;
        (!words, List.sort compare !acc)
      in
      let reachable_words, before = snapshot () in
      let eng = Collectors.Mark_sweep.create ~mem ~tenured:space ~los () in
      Array.iter (Collectors.Mark_sweep.mark_value eng) roots;
      Collectors.Mark_sweep.drain eng;
      let free0 = (Alloc.Backend.frag be).Alloc.Backend.free_words in
      let died = ref 0 in
      let swept =
        Collectors.Mark_sweep.sweep eng ~backend:be
          ~on_die:(fun ~site:_ ~birth:_ ~words -> died := !died + words)
      in
      let free1 = (Alloc.Backend.frag be).Alloc.Backend.free_words in
      let _, after = snapshot () in
      before = after
      && Collectors.Mark_sweep.words_marked_tenured eng = reachable_words
      && swept = !died
      && free1 - free0 = swept
      && Alloc.Backend.live_words be = reachable_words)

(* --- Deque --- *)

let with_deque_checks f =
  let prev = !Collectors.Deque.checks in
  Collectors.Deque.checks := true;
  Fun.protect ~finally:(fun () -> Collectors.Deque.checks := prev) f

let deque_owner_lifo_thief_fifo () =
  with_deque_checks @@ fun () ->
  let d = Collectors.Deque.create ~owner:0 in
  check_bool "starts empty" true (Collectors.Deque.is_empty d);
  (* grow past the initial capacity *)
  for i = 1 to 100 do
    Collectors.Deque.push d ~self:0 i
  done;
  check_int "length" 100 (Collectors.Deque.length d);
  Alcotest.(check (option int))
    "owner pops newest" (Some 100)
    (Collectors.Deque.pop d ~self:0);
  Alcotest.(check (option int))
    "thief steals oldest" (Some 1)
    (Collectors.Deque.steal d ~self:1);
  Alcotest.(check (option int))
    "steals advance" (Some 2)
    (Collectors.Deque.steal d ~self:2);
  (* drain the rest from both ends; every element exactly once *)
  let seen = Hashtbl.create 128 in
  List.iter (fun x -> Hashtbl.replace seen x ()) [ 100; 1; 2 ];
  let rec drain flip =
    let next =
      if flip then Collectors.Deque.pop d ~self:0
      else Collectors.Deque.steal d ~self:1
    in
    match next with
    | None -> ()
    | Some x ->
      check_bool "no element twice" false (Hashtbl.mem seen x);
      Hashtbl.replace seen x ();
      drain (not flip)
  in
  drain true;
  check_int "all elements seen" 100 (Hashtbl.length seen);
  Alcotest.(check (option int)) "empty pop" None (Collectors.Deque.pop d ~self:0)

let deque_checks_catch_misuse () =
  with_deque_checks @@ fun () ->
  let d = Collectors.Deque.create ~owner:3 in
  Collectors.Deque.push d ~self:3 42;
  Alcotest.check_raises "non-owner push"
    (Invalid_argument "Deque.push: bottom access by non-owner") (fun () ->
      Collectors.Deque.push d ~self:0 1);
  Alcotest.check_raises "owner steal"
    (Invalid_argument "Deque.steal: owner must pop, not steal") (fun () ->
      ignore (Collectors.Deque.steal d ~self:3))

(* property: CAS-claim forwarding never double-copies, whatever order the
   packets arrive in.  Random graphs are staged as duplicated root
   packets of random grain and drained at random parallelism under a
   random steal schedule; copied words must equal the reachable words
   (a second copy of any object would overshoot). *)
let par_drain_no_double_copy ~mode (n, seed, parallelism, grain) =
  with_deque_checks @@ fun () ->
      let mem = Mem.Memory.create () in
      let from = Mem.Space.create mem ~words:(n * 6 + 8) in
      let prng = Support.Prng.create ~seed in
      let objs = Array.make n Mem.Addr.null in
      for i = 0 to n - 1 do
        let a =
          match Mem.Space.alloc from ((H.header_words ()) + 3) with
          | Some a -> a
          | None -> QCheck.assume_fail ()
        in
        H.write mem a (record_hdr ~mask:0b110 3) ~birth:0;
        Mem.Memory.set mem (H.field_addr a 0) (V.Int (i * 17));
        let pick () =
          if i = 0 || Support.Prng.bool prng then V.null
          else V.Ptr objs.(Support.Prng.int prng i)
        in
        Mem.Memory.set mem (H.field_addr a 1) (pick ());
        Mem.Memory.set mem (H.field_addr a 2) (pick ());
        objs.(i) <- a
      done;
      let globals = Array.init 4 (fun _ -> V.Ptr objs.(Support.Prng.int prng n)) in
      let snapshot () =
        let seen = Hashtbl.create 64 in
        let words = ref 0 and acc = ref [] in
        let rec go v =
          match v with
          | V.Int _ -> ()
          | V.Ptr a ->
            if (not (Mem.Addr.is_null a)) && not (Hashtbl.mem seen a) then begin
              Hashtbl.replace seen a ();
              words := !words + (H.header_words ()) + 3;
              acc := V.to_int (Mem.Memory.get mem (H.field_addr a 0)) :: !acc;
              go (Mem.Memory.get mem (H.field_addr a 1));
              go (Mem.Memory.get mem (H.field_addr a 2))
            end
        in
        Array.iter go globals;
        (!words, List.sort compare !acc)
      in
      let reachable_words, before = snapshot () in
      let to_space =
        Mem.Space.create mem
          ~words:
            (reachable_words
            + Collectors.Par_drain.space_headroom ~parallelism
                ~copy_bound:reachable_words ())
      in
      let p =
        Collectors.Par_drain.create ~mem
          ~in_from:(Mem.Space.contains from)
          ~to_space ~los:None ~trace_los:false ~promoting:false
          ~object_hooks:None ~parallelism ~mode ~seed ()
      in
      let batch =
        Rstack.Root.Batch.create ~capacity:grain
          ~emit:(Collectors.Par_drain.add_roots p)
      in
      (* every root staged twice: the claim must make the second sighting
         a forwarding lookup, never a second copy *)
      for round = 0 to 1 do
        ignore round;
        Array.iteri
          (fun i _ ->
            Rstack.Root.Batch.push batch (Rstack.Root.Global (globals, i)))
          globals
      done;
      Rstack.Root.Batch.flush batch;
      Collectors.Par_drain.run p;
      let _, after = snapshot () in
      Collectors.Par_drain.words_copied p = reachable_words
      && Collectors.Par_drain.words_scanned p = reachable_words
      && before = after

let par_drain_no_double_copy_prop =
  QCheck.Test.make ~name:"parallel drain never double-copies" ~count:60
    QCheck.(
      quad (int_range 1 80) (int_range 0 1000000) (int_range 1 4)
        (int_range 1 8))
    (par_drain_no_double_copy ~mode:Collectors.Par_drain.Virtual)

(* The same property on true domains: random graphs, duplicated roots,
   random packet grain, p in {2, 4} real workers racing the forwarding
   claim under whatever schedule the host produces.  Copied words equal
   reachable words (a lost CAS that still kept its copy would
   overshoot), scanned words equal copied words (a double-scan would
   overshoot), and the graph survives intact. *)
let real_drain_no_double_copy_prop =
  QCheck.Test.make ~name:"real-domain drain never double-copies" ~count:30
    QCheck.(
      quad (int_range 1 80) (int_range 0 1000000) (int_range 1 2)
        (int_range 1 8))
    (fun (n, seed, phalf, grain) ->
      par_drain_no_double_copy ~mode:Collectors.Par_drain.Real
        (n, seed, 2 * phalf, grain))

(* The concurrent deque itself, under genuine contention: one owner
   domain pushing and popping, three thief domains stealing, every item
   must be claimed exactly once.  (The drain tests exercise the deque
   too, but through packets whose loss shows up only indirectly.) *)
let cl_deque_concurrent_stress () =
  let n_items = 20000 in
  let d = Collectors.Cl_deque.create () in
  let taken = Array.init n_items (fun _ -> Atomic.make 0) in
  let stop = Atomic.make false in
  let thieves =
    Array.init 3 (fun _ ->
        Domain.spawn (fun () ->
            let rec loop () =
              match Collectors.Cl_deque.steal d with
              | Some i ->
                Atomic.incr taken.(i);
                loop ()
              | None ->
                if not (Atomic.get stop) then begin
                  Domain.cpu_relax ();
                  loop ()
                end
            in
            loop ()))
  in
  let prng = Support.Prng.create ~seed:42 in
  for i = 0 to n_items - 1 do
    Collectors.Cl_deque.push d i;
    if Support.Prng.int prng 3 = 0 then
      match Collectors.Cl_deque.pop d with
      | Some j -> Atomic.incr taken.(j)
      | None -> ()
  done;
  let rec drain () =
    match Collectors.Cl_deque.pop d with
    | Some j ->
      Atomic.incr taken.(j);
      drain ()
    | None ->
      (* [None] is empty *or* a lost last-element race; only stop once
         the deque is visibly drained *)
      if not (Collectors.Cl_deque.is_empty d) then drain ()
  in
  drain ();
  Atomic.set stop true;
  Array.iter Domain.join thieves;
  Array.iteri
    (fun i c ->
      let c = Atomic.get c in
      if c <> 1 then
        Alcotest.failf "item %d claimed %d times (want exactly once)" i c)
    taken

(* property: random object graphs survive a semispace collection intact *)
let graph_roundtrip_prop =
  QCheck.Test.make ~name:"semispace preserves random graphs" ~count:60
    QCheck.(pair (int_range 1 60) (int_range 0 1000000))
    (fun (n, seed) ->
      let globals = Array.make 4 V.zero in
      let mem, s = semi ~budget:(512 * 1024) globals in
      let prng = Support.Prng.create ~seed in
      (* build n records, each pointing to up to two earlier ones, plus an
         int payload; roots = 4 random picks *)
      let objs = Array.make n Mem.Addr.null in
      for i = 0 to n - 1 do
        let a = Collectors.Semispace.alloc s (record_hdr ~mask:0b110 3) ~birth:0 in
        Mem.Memory.set mem (H.field_addr a 0) (V.Int (i * 17));
        let pick () =
          if i = 0 || Support.Prng.bool prng then V.null
          else V.Ptr objs.(Support.Prng.int prng i)
        in
        Mem.Memory.set mem (H.field_addr a 1) (pick ());
        Mem.Memory.set mem (H.field_addr a 2) (pick ());
        objs.(i) <- a
      done;
      for r = 0 to 3 do
        globals.(r) <- V.Ptr objs.(Support.Prng.int prng n)
      done;
      (* snapshot reachable payloads (sorted multiset) *)
      let snapshot () =
        let seen = Hashtbl.create 64 in
        let acc = ref [] in
        let rec go v =
          match v with
          | V.Int _ -> ()
          | V.Ptr a ->
            if (not (Mem.Addr.is_null a)) && not (Hashtbl.mem seen a) then begin
              Hashtbl.replace seen a ();
              acc := V.to_int (Mem.Memory.get mem (H.field_addr a 0)) :: !acc;
              go (Mem.Memory.get mem (H.field_addr a 1));
              go (Mem.Memory.get mem (H.field_addr a 2))
            end
        in
        Array.iter go globals;
        List.sort compare !acc
      in
      let before = snapshot () in
      Collectors.Semispace.collect s;
      let after = snapshot () in
      before = after)

let () =
  Alcotest.run "gc"
    [ ( "los",
        [ Alcotest.test_case "mark and sweep" `Quick los_mark_sweep ] );
      ( "barriers",
        [ Alcotest.test_case "ssb keeps duplicates" `Quick ssb_duplicates;
          Alcotest.test_case "remset dedups" `Quick remset_dedups ] );
      ( "semispace",
        [ Alcotest.test_case "collect preserves graph" `Quick
            semispace_collect_preserves_graph;
          Alcotest.test_case "drops garbage" `Quick semispace_drops_garbage;
          Alcotest.test_case "sharing preserved" `Quick
            semispace_sharing_preserved;
          Alcotest.test_case "cycles" `Quick semispace_cycle;
          Alcotest.test_case "budget failure" `Quick semispace_budget_failure;
          QCheck_alcotest.to_alcotest graph_roundtrip_prop ] );
      ( "generational",
        [ Alcotest.test_case "promotion" `Quick gen_promotion;
          Alcotest.test_case "write barrier" `Quick gen_write_barrier;
          Alcotest.test_case "missing barrier loses object" `Quick
            gen_missing_barrier_loses_object;
          Alcotest.test_case "large object space" `Quick gen_large_object_space;
          Alcotest.test_case "pretenured region scan" `Quick
            gen_pretenured_region_scan;
          Alcotest.test_case "scan elision skips" `Quick gen_scan_elision_skips;
          Alcotest.test_case "long run" `Quick gen_survives_many_collections;
          Alcotest.test_case "pretenured -> LOS edge" `Quick
            pretenured_to_los_edge;
          Alcotest.test_case "card table unit" `Quick card_table_unit;
          Alcotest.test_case "card barrier" `Quick (card_barrier_keeps_edge 1);
          Alcotest.test_case "card barrier + aging" `Quick
            (card_barrier_keeps_edge 3);
          Alcotest.test_case "aging nursery" `Quick aging_nursery_delays_promotion;
          Alcotest.test_case "aging copies more" `Quick
            aging_copies_more_than_immediate ] );
      ( "safe-vs-raw",
        [ Alcotest.test_case "identical stats (generational)" `Quick
            safe_raw_identical_stats;
          Alcotest.test_case "identical stats (semispace)" `Quick
            safe_raw_identical_semispace ] );
      ( "parallel-drain",
        [ Alcotest.test_case "identical stats (generational)" `Quick
            par_seq_identical_stats;
          Alcotest.test_case "identical stats (semispace)" `Quick
            par_seq_identical_semispace;
          Alcotest.test_case "identical site survival + domain spans" `Quick
            par_seq_identical_site_survival;
          Alcotest.test_case "deque LIFO/FIFO discipline" `Quick
            deque_owner_lifo_thief_fifo;
          Alcotest.test_case "deque checks catch misuse" `Quick
            deque_checks_catch_misuse;
          QCheck_alcotest.to_alcotest par_drain_no_double_copy_prop ] );
      ( "real-domain-drain",
        [ Alcotest.test_case "identical stats (generational)" `Quick
            real_seq_identical_stats;
          Alcotest.test_case "identical stats (semispace)" `Quick
            real_seq_identical_semispace;
          Alcotest.test_case "concurrent deque exactly-once" `Quick
            cl_deque_concurrent_stress;
          QCheck_alcotest.to_alcotest real_drain_no_double_copy_prop ] );
      ( "eager-evac",
        [ Alcotest.test_case "placement-only equivalence" `Quick
            eager_identical_stats ] );
      ( "header-layout",
        [ Alcotest.test_case "packed/classic equivalence matrix" `Quick
            packed_classic_equivalence ] );
      ( "mark-sweep",
        [ Alcotest.test_case "copying-equivalent live set" `Quick
            ms_equivalent_live_set;
          Alcotest.test_case "safe vs raw identical" `Quick
            ms_safe_raw_identical;
          Alcotest.test_case "reclaims and reuses holes" `Quick
            ms_reclaims_and_reuses_holes;
          QCheck_alcotest.to_alcotest ms_sweep_safety_prop ] );
      ( "alloc-backends",
        [ Alcotest.test_case "los backends reuse swept holes" `Quick
            los_backend_reuse;
          Alcotest.test_case "backend matrix equivalence" `Quick
            backend_matrix_equivalence;
          Alcotest.test_case "backend matrix (aging, cards, parallel)" `Quick
            backend_matrix_other_axes;
          QCheck_alcotest.to_alcotest backend_no_overlap_prop;
          QCheck_alcotest.to_alcotest free_list_coalesce_prop;
          QCheck_alcotest.to_alcotest size_class_fallback_prop;
          QCheck_alcotest.to_alcotest backend_walkable_prop ] ) ]
