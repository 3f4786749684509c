(* Unit tests for the collector layer: the Cheney engine, the semispace
   and generational collectors, the large-object space and the write
   barriers.  These drive the collectors directly through global roots
   (no simulated stack), which exercises the Hooks plumbing too. *)

module H = Mem.Header
module V = Mem.Value

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* a hooks record whose only roots are the cells of [globals] (encoded
   words) *)
let global_hooks globals =
  { Collectors.Hooks.nothing with
    Collectors.Hooks.visit_globals =
      (fun _ roots ->
        Array.iteri (fun i _ -> Rstack.Root.Buf.push roots globals i) globals)
  }

let record_hdr ?(site = 0) ~mask len = { H.kind = H.Record { mask }; len; site }

(* grants signal a miss with [Addr.null] *)
let grant_opt a = if Mem.Addr.is_null a then None else Some a

(* the header-record wrappers over the collectors' scalar allocation
   entries *)
let gen_alloc g hdr ~birth =
  Collectors.Collector.alloc (Collectors.Collector.Generational g) hdr ~birth

let gen_alloc_pretenured g hdr ~birth =
  Collectors.Collector.alloc_pretenured (Collectors.Collector.Generational g)
    hdr ~birth

let semi_alloc s hdr ~birth =
  Collectors.Collector.alloc (Collectors.Collector.Semispace s) hdr ~birth

let los_alloc los hdr ~birth =
  Collectors.Los.alloc los ~tag:(H.tag_of_kind hdr.H.kind) ~len:hdr.H.len
    ~mask:(H.mask_of_kind hdr.H.kind) ~site:hdr.H.site ~birth

(* --- Los --- *)

let los_mark_sweep () =
  let mem = Mem.Memory.create () in
  let los = Collectors.Los.create mem in
  let a = los_alloc los { H.kind = H.Nonptr_array; len = 600; site = 1 } ~birth:0 in
  let b = los_alloc los { H.kind = H.Nonptr_array; len = 700; site = 2 } ~birth:0 in
  check_bool "contains a" true (Collectors.Los.contains los a);
  check_int "live words" (603 + 703) (Collectors.Los.live_words los);
  check_bool "first mark" true (Collectors.Los.mark los a);
  check_bool "second mark is idempotent" false (Collectors.Los.mark los a);
  let deaths = Collectors.Site_tally.create () in
  let freed = Collectors.Los.sweep los ~deaths:(Some deaths) in
  Alcotest.(check (list (list int))) "b died" [ [ 2; 1; 0; 0 ] ]
    (List.map (fun (s, o, f, b) -> [ s; o; f; b ])
       (Collectors.Site_tally.rows deaths));
  check_int "sweep reports freed words" 703 freed;
  check_bool "a survives" true (Collectors.Los.contains los a);
  check_bool "b freed" false (Collectors.Los.contains los b);
  (* marks cleared: an unmarked second sweep kills a *)
  let freed2 = Collectors.Los.sweep los ~deaths:None in
  check_int "second sweep frees a" 603 freed2;
  check_int "empty" 0 (Collectors.Los.live_words los)

(* --- Site_tally --- *)

module ST = Collectors.Site_tally

let tally_rows = Alcotest.(check (list (list int)))

let as_lists t = List.map (fun (s, o, f, w) -> [ s; o; f; w ]) (ST.rows t)

(* rows come out in site order whatever order the sites were noted in,
   through [rows], [iter] and the [site] cursor alike *)
let tally_sorted () =
  let t = ST.create () in
  List.iter
    (fun (site, first, words) -> ST.note t ~site ~first ~words)
    [ (7, false, 3); (3, true, 4); (90, false, 5); (3, false, 6); (0, true, 2) ];
  let want =
    [ [ 0; 1; 1; 2 ]; [ 3; 2; 1; 10 ]; [ 7; 1; 0; 3 ]; [ 90; 1; 0; 5 ] ]
  in
  tally_rows "rows" want (as_lists t);
  let seen = ref [] in
  ST.iter t (fun ~site ~objects ~firsts ~sum ->
    seen := [ site; objects; firsts; sum ] :: !seen);
  tally_rows "iter" want (List.rev !seen);
  Alcotest.(check (list int)) "cursor" [ 0; 3; 7; 90 ]
    (List.init (ST.length t) (ST.site t));
  check_int "no row" 0 (ST.objects t 5);
  (* deaths sum births *)
  let d = ST.create () in
  ST.note_death d ~site:4 ~birth:100;
  ST.note_death d ~site:4 ~birth:40;
  tally_rows "death row" [ [ 4; 2; 0; 140 ] ] (as_lists d)

(* a cleared table has no rows, and a row noted again starts from zero *)
let tally_clear_reuse () =
  let t = ST.create () in
  ST.note t ~site:5 ~first:true ~words:9;
  ST.note t ~site:2 ~first:false ~words:4;
  ST.clear t;
  check_int "no rows" 0 (ST.length t);
  tally_rows "empty" [] (as_lists t);
  check_int "zeroed" 0 (ST.sum t 5);
  ST.note t ~site:5 ~first:false ~words:3;
  ST.note t ~site:1 ~first:true ~words:2;
  tally_rows "reused" [ [ 1; 1; 1; 2 ]; [ 5; 1; 0; 3 ] ] (as_lists t)

let tally_merge () =
  let a = ST.create () and b = ST.create () in
  ST.note a ~site:3 ~first:true ~words:4;
  ST.note a ~site:8 ~first:false ~words:5;
  ST.note b ~site:8 ~first:true ~words:6;
  ST.note b ~site:1 ~first:false ~words:7;
  let m = ST.merge [ a; b ] in
  tally_rows "sums" [ [ 1; 1; 0; 7 ]; [ 3; 1; 1; 4 ]; [ 8; 2; 1; 11 ] ]
    (as_lists m);
  tally_rows "inputs untouched" [ [ 3; 1; 1; 4 ]; [ 8; 1; 0; 5 ] ] (as_lists a);
  tally_rows "merge of none" [] (as_lists (ST.merge []))

(* the largest site a header holds has a row; one past it, a negative
   site and a row in the shared empty table are refused *)
let tally_site_range () =
  let t = ST.create () in
  ST.note t ~site:H.max_site ~first:true ~words:3;
  ST.note t ~site:0 ~first:false ~words:1;
  tally_rows "max site" [ [ 0; 1; 0; 1 ]; [ H.max_site; 1; 1; 3 ] ] (as_lists t);
  let refused f =
    match f () with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "past max_site" true
    (refused (fun () -> ST.note t ~site:(H.max_site + 1) ~first:false ~words:1));
  check_bool "negative" true
    (refused (fun () -> ST.note t ~site:(-1) ~first:false ~words:1));
  check_bool "empty takes no rows" true
    (refused (fun () -> ST.note ST.empty ~site:0 ~first:false ~words:1));
  check_int "empty stays empty" 0 (ST.length ST.empty)

(* once the table has grown past the sites and rows a collection sees,
   noting, reading the rows in site order and clearing allocate nothing *)
let tally_no_host_words () =
  let t = ST.create () in
  let round () =
    for i = 0 to 199 do
      let site = (i * 37) mod 101 in
      ST.note t ~site ~first:(i land 1 = 0) ~words:i;
      ST.note_death t ~site ~birth:i
    done;
    let total = ref 0 in
    for r = 0 to ST.length t - 1 do
      total := !total + ST.sum t (ST.site t r)
    done;
    ST.clear t;
    !total
  in
  ignore (round () : int);
  let before = Gc.minor_words () in
  let total = round () in
  let words = Gc.minor_words () -. before in
  check_int "sums" (2 * 199 * 200 / 2) total;
  Alcotest.(check (float 0.)) "host words" 0. words

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
  Collectors.Ssb.drain ssb (fun () _ -> incr n) ();
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
  Collectors.Remset.drain rs (fun () _ -> incr n) ();
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
  let globals = Array.make 2 V.encoded_zero in
  let mem, s = semi globals in
  (* a two-node cycle-free chain: g0 -> a -> b *)
  let b = semi_alloc s (record_hdr ~mask:0 1) ~birth:0 in
  Mem.Memory.set mem (H.field_addr b 0) (V.Int 77);
  let a = semi_alloc s (record_hdr ~mask:1 1) ~birth:0 in
  Mem.Memory.set mem (H.field_addr a 0) (V.Ptr b);
  globals.(0) <- V.encode_addr a;
  Collectors.Semispace.collect s;
  (* everything moved; the graph must survive *)
  let a' = V.to_addr (V.decode globals.(0)) in
  check_bool "a moved" false (Mem.Addr.equal a a');
  let b' = V.to_addr (Mem.Memory.get mem (H.field_addr a' 0)) in
  check_int "payload preserved" 77 (V.to_int (Mem.Memory.get mem (H.field_addr b' 0)));
  check_int "live words" (2 * 4) (Collectors.Semispace.live_words s)

let semispace_drops_garbage () =
  let globals = Array.make 1 V.encoded_zero in
  let _mem, s = semi globals in
  for _ = 1 to 100 do
    ignore (semi_alloc s (record_hdr ~mask:0 2) ~birth:0)
  done;
  Collectors.Semispace.collect s;
  check_int "no survivors" 0 (Collectors.Semispace.live_words s)

let semispace_sharing_preserved () =
  (* two roots to the same object must stay aliased after copying *)
  let globals = Array.make 2 V.encoded_zero in
  let mem, s = semi globals in
  let a = semi_alloc s (record_hdr ~mask:0 1) ~birth:0 in
  Mem.Memory.set mem (H.field_addr a 0) (V.Int 5);
  globals.(0) <- V.encode_addr a;
  globals.(1) <- V.encode_addr a;
  Collectors.Semispace.collect s;
  check_bool "still aliased" true (globals.(0) = globals.(1))

let semispace_cycle () =
  (* a 2-cycle must not loop the collector *)
  let globals = Array.make 1 V.encoded_zero in
  let mem, s = semi globals in
  let a = semi_alloc s (record_hdr ~mask:1 1) ~birth:0 in
  let b = semi_alloc s (record_hdr ~mask:1 1) ~birth:0 in
  Mem.Memory.set mem (H.field_addr a 0) (V.Ptr b);
  Mem.Memory.set mem (H.field_addr b 0) (V.Ptr a);
  globals.(0) <- V.encode_addr a;
  Collectors.Semispace.collect s;
  let a' = V.to_addr (V.decode globals.(0)) in
  let b' = V.to_addr (Mem.Memory.get mem (H.field_addr a' 0)) in
  let a'' = V.to_addr (Mem.Memory.get mem (H.field_addr b' 0)) in
  check_bool "cycle closed" true (Mem.Addr.equal a' a'');
  check_int "live words" 8 (Collectors.Semispace.live_words s)

let semispace_budget_failure () =
  let globals = Array.make 64 V.encoded_zero in
  let _mem, s = semi ~budget:(4 * 1024) globals in
  (* keep everything alive until the budget must fail *)
  match
    for i = 0 to 63 do
      let a = semi_alloc s { H.kind = H.Nonptr_array; len = 16; site = 0 } ~birth:0 in
      globals.(i) <- V.encode_addr a
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
  let globals = Array.make 1 V.encoded_zero in
  let mem, g, stats = gen globals in
  let a = gen_alloc g (record_hdr ~mask:0 1) ~birth:0 in
  Mem.Memory.set mem (H.field_addr a 0) (V.Int 9);
  globals.(0) <- V.encode_addr a;
  check_bool "starts in nursery" true (Collectors.Generational.in_nursery g a);
  Collectors.Generational.minor g;
  let a' = V.to_addr (V.decode globals.(0)) in
  check_bool "promoted to tenured" true (Collectors.Generational.in_tenured g a');
  check_int "payload" 9 (V.to_int (Mem.Memory.get mem (H.field_addr a' 0)));
  check_int "one minor gc" 1 stats.Collectors.Gc_stats.minor_gcs;
  check_bool "promotion counted" true
    (stats.Collectors.Gc_stats.words_promoted = 4)

let gen_write_barrier () =
  (* an old->young pointer created by mutation must keep the young object
     alive even though no stack/global root reaches it at minor GC *)
  let globals = Array.make 1 V.encoded_zero in
  let mem, g, _stats = gen globals in
  let holder = gen_alloc g (record_hdr ~mask:1 1) ~birth:0 in
  globals.(0) <- V.encode_addr holder;
  Collectors.Generational.minor g;
  let holder = V.to_addr (V.decode globals.(0)) in
  check_bool "holder tenured" true (Collectors.Generational.in_tenured g holder);
  (* young object reachable only through the mutated tenured field *)
  let young = gen_alloc g (record_hdr ~mask:0 1) ~birth:0 in
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
  let globals = Array.make 1 V.encoded_zero in
  let mem, g, _ = gen globals in
  let holder = gen_alloc g (record_hdr ~mask:1 1) ~birth:0 in
  globals.(0) <- V.encode_addr holder;
  Collectors.Generational.minor g;
  let holder = V.to_addr (V.decode globals.(0)) in
  let young = gen_alloc g (record_hdr ~mask:0 1) ~birth:0 in
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
  let globals = Array.make 1 V.encoded_zero in
  let _mem, g, stats = gen globals in
  let big =
    gen_alloc g
      { H.kind = H.Nonptr_array; len = 600; site = 3 } ~birth:0
  in
  check_bool "not in nursery" false (Collectors.Generational.in_nursery g big);
  check_bool "not in tenured" false (Collectors.Generational.in_tenured g big);
  globals.(0) <- V.encode_addr big;
  Collectors.Generational.full g;
  (* large objects are marked, not copied *)
  check_bool "address stable" true (V.equal (V.decode globals.(0)) (V.Ptr big));
  (* drop it: the next full collection sweeps it *)
  globals.(0) <- V.encoded_zero;
  let live_before = Collectors.Generational.live_words g in
  Collectors.Generational.full g;
  check_bool "swept" true (Collectors.Generational.live_words g < live_before);
  check_bool "gcs counted" true (stats.Collectors.Gc_stats.major_gcs >= 2)

let gen_pretenured_region_scan () =
  (* a pretenured object initialised with a young pointer: the region
     scan must promote the young object at the next minor collection *)
  let globals = Array.make 1 V.encoded_zero in
  let mem, g, stats = gen globals in
  let young = gen_alloc g (record_hdr ~mask:0 1) ~birth:0 in
  Mem.Memory.set mem (H.field_addr young 0) (V.Int 55);
  let old_obj =
    gen_alloc_pretenured g (record_hdr ~mask:1 1) ~birth:0
  in
  Mem.Memory.set mem (H.field_addr old_obj 0) (V.Ptr young);
  globals.(0) <- V.encode_addr old_obj;
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
  (* with scan_elision the region scan skips the object and only counts
     its words *)
  let globals = Array.make 1 V.encoded_zero in
  let mem = Mem.Memory.create () in
  let stats = Collectors.Gc_stats.create () in
  let hooks =
    { (global_hooks globals) with Collectors.Hooks.scan_elision = true }
  in
  let g =
    Collectors.Generational.create mem ~hooks ~stats
      { (Collectors.Generational.default_config ~budget_bytes:(256 * 1024)) with
        Collectors.Generational.nursery_bytes_max = 8 * 1024 }
  in
  let old_obj =
    gen_alloc_pretenured g (record_hdr ~mask:0 ~site:7 1)
      ~birth:0
  in
  globals.(0) <- V.encode_addr old_obj;
  Collectors.Generational.minor g;
  check_int "region words skipped" 4 stats.Collectors.Gc_stats.words_region_skipped;
  check_int "none scanned" 0 stats.Collectors.Gc_stats.words_region_scanned

(* --- the pretenured-region loop --- *)

(* One minor over a pretenured region holding one of each thing the
   region loop tells apart: the filler a parallel drain leaves behind (a
   pretenured non-pointer array rewritten in place), a non-pointer
   array, a pointer array (a young field, an integer, a null and an old
   pointer) and a masked record (a young field, an unmasked integer, an
   old pointer), plus one barriered store into the region.  Returns a
   placement-independent digest of the reachable heap (objects numbered
   in breadth-first order from the roots, each with its space, header,
   age and fields), [words_region_scanned] and
   [barrier_entries_processed]. *)
let region_case ~threshold ~parallelism =
  let globals = Array.make 2 V.encoded_zero in
  let mem, g, stats = gen ~threshold ~parallelism globals in
  let set a i v = Mem.Memory.set mem (H.field_addr a i) v in
  let young n =
    let a = gen_alloc g (record_hdr ~mask:0 ~site:3 1) ~birth:0 in
    set a 0 (V.Int n);
    a
  in
  let y1 = young 11 and y2 = young 22 and y3 = young 33 in
  let filler =
    gen_alloc_pretenured g { H.kind = H.Nonptr_array; len = 4; site = 5 }
      ~birth:0
  in
  H.write_filler_c (Mem.Memory.cells mem filler) ~off:(Mem.Addr.offset filler)
    ~words:(H.header_words () + 4);
  let raw =
    gen_alloc_pretenured g { H.kind = H.Nonptr_array; len = 3; site = 6 }
      ~birth:0
  in
  for i = 0 to 2 do
    set raw i (V.Int (100 + i))
  done;
  let arr =
    gen_alloc_pretenured g { H.kind = H.Ptr_array; len = 4; site = 7 }
      ~birth:0
  in
  set arr 0 (V.Ptr y1);
  set arr 1 (V.Int 5);
  set arr 2 V.null;
  set arr 3 (V.Ptr raw);
  let rcd = gen_alloc_pretenured g (record_hdr ~mask:0b101 ~site:8 3) ~birth:0 in
  set rcd 0 (V.Ptr y2);
  set rcd 1 (V.Int 9);
  set rcd 2 (V.Ptr arr);
  set arr 2 (V.Ptr y3);
  Collectors.Generational.record_update g ~obj:arr ~loc:(H.field_addr arr 2);
  globals.(0) <- V.encode_addr rcd;
  globals.(1) <- V.encode_addr raw;
  Collectors.Generational.minor g;
  let ids = Hashtbl.create 16 and queue = Queue.create () and out = Buffer.create 256 in
  let word v =
    match v with
    | V.Int n -> Printf.sprintf "i%d" n
    | V.Ptr a when Mem.Addr.is_null a -> "null"
    | V.Ptr a ->
      let id =
        match Hashtbl.find_opt ids a with
        | Some id -> id
        | None ->
          let id = Hashtbl.length ids in
          Hashtbl.replace ids a id;
          Queue.push a queue;
          id
      in
      Printf.sprintf "p%d" id
  in
  Array.iter (fun w -> Buffer.add_string out (word (V.decode w) ^ " ")) globals;
  while not (Queue.is_empty queue) do
    let a = Queue.pop queue in
    let h = H.read mem a in
    Buffer.add_string out
      (Printf.sprintf "\n%s %s age %d:"
         (if Collectors.Generational.in_nursery g a then "young"
          else if Collectors.Generational.in_tenured g a then "old"
          else "large")
         (Format.asprintf "%a" H.pp h) (H.age mem a));
    for i = 0 to h.H.len - 1 do
      Buffer.add_string out (" " ^ word (Mem.Memory.get mem (H.field_addr a i)))
    done
  done;
  ( Digest.to_hex (Digest.string (Buffer.contents out)),
    stats.Collectors.Gc_stats.words_region_scanned,
    stats.Collectors.Gc_stats.barrier_entries_processed )

let region_result = Alcotest.(check (triple string int int))

(* The sequential region loop against the parallel drain's per-object
   packets under immediate promotion; both, and the aging minor (whose
   every pointer field takes the engine's full visit, remembered edges
   included), against values recorded when the region was visited one
   object at a time through the engine's generic object scan. *)
let gen_region_loop () =
  let seq = region_case ~threshold:1 ~parallelism:1 in
  region_result "p = 1 loop = p = 2 packets" seq
    (region_case ~threshold:1 ~parallelism:2);
  region_result "tenure 1 pinned"
    ("7aa92db8d1e72d1a29b6775c266c97f5", 19, 1) seq;
  region_result "tenure 2 pinned"
    ("3b3df27a3a84cfd34b8f1da6acbeaab0", 19, 1)
    (region_case ~threshold:2 ~parallelism:1)

let gen_survives_many_collections () =
  let globals = Array.make 4 V.encoded_zero in
  let mem, g, stats = gen globals in
  (* a persistent list in globals.(0), garbage elsewhere *)
  let prng = Support.Prng.create ~seed:42 in
  for i = 1 to 3000 do
    let keep = Support.Prng.int prng 10 = 0 in
    let hdr = record_hdr ~mask:2 2 in
    let a = gen_alloc g hdr ~birth:0 in
    Mem.Memory.set mem (H.field_addr a 0) (V.Int i);
    Mem.Memory.set mem (H.field_addr a 1) (V.decode globals.(0));
    if keep then globals.(0) <- V.encode_addr a
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
  let n = walk (V.decode globals.(0)) max_int 0 in
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
  for i = 0 to 19 do
    Collectors.Card_table.cover ct ~offset:(40 * i) ~words:40
  done;
  (* card 1 spans words 64..128: the object at 40 covers its start *)
  check_int "crossing for card 1" 40 (Collectors.Card_table.crossing ct 1);
  check_int "uncovered card" (-1) (Collectors.Card_table.crossing ct 15);
  check_int "window lo" 64 (Collectors.Card_table.card_lo ct 1);
  check_int "window hi" 128 (Collectors.Card_table.card_hi ct 1);
  (* the window is clipped to the covered prefix (800 words) *)
  check_int "clipped hi" 800 (Collectors.Card_table.card_hi ct 12);
  (* a drain visits the marked cards and counts them; a card marked by
     the visit itself waits for the next drain, over both mark buffers *)
  let seen = ref [] in
  let drained =
    Collectors.Card_table.drain_marked ct (fun c ->
      seen := c :: !seen;
      if c = 10 then Collectors.Card_table.record ct ~offset:200)
  in
  check_int "drained" 2 drained;
  Alcotest.(check (list int)) "drain order" [ 10; 1 ] !seen;
  Alcotest.(check (list int)) "marked during the drain" [ 3 ]
    (Collectors.Card_table.marked_cards ct);
  for _ = 1 to 2 do
    Alcotest.(check (list int)) "next drain" [ 3 ]
      (let seen = ref [] in
       ignore (Collectors.Card_table.drain_marked ct (fun c -> seen := c :: !seen));
       !seen);
    Collectors.Card_table.record ct ~offset:200
  done;
  Collectors.Card_table.clear_marks ct;
  check_int "cleared" 0 (Collectors.Card_table.marked_count ct)

let card_barrier_keeps_edge threshold () =
  (* same scenario as the write-barrier test, under cards; under an aging
     nursery the edge must stay remembered, through every minor that
     keeps its target young, until the target is promoted *)
  let globals = Array.make 1 V.encoded_zero in
  let mem, g, _ =
    gen ~barrier:Collectors.Generational.Barrier_cards ~threshold globals
  in
  let holder = gen_alloc g (record_hdr ~mask:1 1) ~birth:0 in
  globals.(0) <- V.encode_addr holder;
  for _ = 1 to threshold do
    Collectors.Generational.minor g
  done;
  let holder = V.to_addr (V.decode globals.(0)) in
  check_bool "holder tenured" true (Collectors.Generational.in_tenured g holder);
  let young = gen_alloc g (record_hdr ~mask:0 1) ~birth:0 in
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
  let globals = Array.make 1 V.encoded_zero in
  let mem, g, stats = gen ~threshold:3 globals in
  let a = gen_alloc g (record_hdr ~mask:0 1) ~birth:0 in
  Mem.Memory.set mem (H.field_addr a 0) (V.Int 31);
  globals.(0) <- V.encode_addr a;
  (* two minors: survives in the nursery, aging *)
  Collectors.Generational.minor g;
  let a1 = V.to_addr (V.decode globals.(0)) in
  check_bool "still young after one gc" true
    (Collectors.Generational.in_nursery g a1);
  check_int "age 1" 1 (Mem.Header.age mem a1);
  Collectors.Generational.minor g;
  let a2 = V.to_addr (V.decode globals.(0)) in
  check_bool "still young after two" true
    (Collectors.Generational.in_nursery g a2);
  check_int "age 2" 2 (Mem.Header.age mem a2);
  (* third minor promotes *)
  Collectors.Generational.minor g;
  let a3 = V.to_addr (V.decode globals.(0)) in
  check_bool "promoted at the threshold" true
    (Collectors.Generational.in_tenured g a3);
  check_int "payload intact" 31 (V.to_int (Mem.Memory.get mem (H.field_addr a3 0)));
  (* the object was copied three times but promoted once *)
  check_int "copied three times" (3 * 4) stats.Collectors.Gc_stats.words_copied;
  check_int "promoted once" 4 stats.Collectors.Gc_stats.words_promoted

(* --- recycled pair swaps (DESIGN.md §5p) ---

   A swap retires its from-space into a spare and the next swap
   re-issues the spare as its to-space.  A pointer kept into a retired
   space must still fail as a freed-block access, and the re-issued
   block must take the id a fresh block would have. *)

let expect_freed what mem a =
  match Mem.Memory.get mem a with
  | _ -> Alcotest.failf "%s: stale pointer read succeeded" what
  | exception Invalid_argument msg ->
    check_bool what true
      (String.starts_with ~prefix:"Memory: access to freed block" msg)

let root_addr globals i = V.to_addr (V.decode globals.(i))

let recycled_major_stale_pointer () =
  let globals = Array.make 2 V.encoded_zero in
  let mem, g, _ = gen globals in
  (* a pretenured object marks the first tenured block; unrooted
     pretenured garbage behind it dirties the block *)
  let p = gen_alloc_pretenured g (record_hdr ~mask:0 1) ~birth:0 in
  Mem.Memory.set mem (H.field_addr p 0) (V.Int 77);
  globals.(0) <- V.encode_addr p;
  for i = 1 to 50 do
    let junk = gen_alloc_pretenured g (record_hdr ~mask:0 1) ~birth:0 in
    Mem.Memory.set mem (H.field_addr junk 0) (V.Int i)
  done;
  (* the first major allocates its to-space and retires the first
     tenured block into the spare *)
  Collectors.Generational.full g;
  let stale = root_addr globals 0 in
  let words = Mem.Memory.allocated_words mem in
  (* the second major copies into the re-issued spare *)
  Collectors.Generational.full g;
  let live = root_addr globals 0 in
  check_int "spare re-issued under the id a fresh block takes"
    (Mem.Addr.block p) (Mem.Addr.block live);
  check_int "payload" 77 (V.to_int (Mem.Memory.get mem (H.field_addr live 0)));
  check_int "allocated words as free + alloc" words
    (Mem.Memory.allocated_words mem);
  expect_freed "pointer into the evacuated space" mem stale;
  expect_freed "field of the evacuated object" mem (H.field_addr stale 0);
  (* the retired block was zeroed before re-issue: past the one copied
     object the recycled space reads as fresh memory *)
  let copied = Mem.Header.object_words_at mem live in
  let dirty = ref 0 in
  for i = copied to Mem.Memory.block_words mem live - 1 do
    if not (V.equal (Mem.Memory.get mem (Mem.Addr.add live i)) V.zero) then
      incr dirty
  done;
  check_int "recycled space zero past the copy" 0 !dirty

let recycled_aging_minor_stale_pointer () =
  let globals = Array.make 2 V.encoded_zero in
  let mem, g, _ = gen ~threshold:2 globals in
  let a = gen_alloc g (record_hdr ~mask:0 1) ~birth:0 in
  Mem.Memory.set mem (H.field_addr a 0) (V.Int 5);
  globals.(0) <- V.encode_addr a;
  (* the first aging minor evacuates into a fresh semispace and retires
     the first nursery block into the spare *)
  Collectors.Generational.minor g;
  let young = root_addr globals 0 in
  check_bool "aged in the nursery" true (Collectors.Generational.in_nursery g young);
  expect_freed "pointer into the first nursery" mem a;
  let b = gen_alloc g (record_hdr ~mask:0 1) ~birth:0 in
  Mem.Memory.set mem (H.field_addr b 0) (V.Int 6);
  globals.(1) <- V.encode_addr b;
  (* the second one evacuates into the re-issued spare: [a] is promoted,
     [b] stays young in the recycled block *)
  Collectors.Generational.minor g;
  let a' = root_addr globals 0 and b' = root_addr globals 1 in
  check_bool "promoted at the threshold" true (Collectors.Generational.in_tenured g a');
  check_bool "young survivor in the recycled nursery" true
    (Collectors.Generational.in_nursery g b');
  check_int "spare re-issued under the id a fresh block takes"
    (Mem.Addr.block a) (Mem.Addr.block b');
  check_int "promoted payload" 5 (V.to_int (Mem.Memory.get mem (H.field_addr a' 0)));
  check_int "young payload" 6 (V.to_int (Mem.Memory.get mem (H.field_addr b' 0)));
  expect_freed "pointer into the evacuated nursery" mem young

let aging_copies_more_than_immediate () =
  (* the motivation for pretenuring under aging policies: long-lived data
     is copied [threshold] times instead of once *)
  let run threshold =
    let globals = Array.make 1 V.encoded_zero in
    let mem, g, stats = gen ~threshold globals in
    for i = 1 to 400 do
      let a = gen_alloc g (record_hdr ~mask:2 2) ~birth:0 in
      Mem.Memory.set mem (H.field_addr a 0) (V.Int i);
      Mem.Memory.set mem (H.field_addr a 1) (V.decode globals.(0));
      globals.(0) <- V.encode_addr a
    done;
    stats.Collectors.Gc_stats.words_copied
  in
  let c1 = run 1 and c3 = run 3 in
  check_bool "aging copies substantially more" true (c3 > c1 * 2)

let pretenured_to_los_edge () =
  (* a pretenured record pointing at a large object: the major trace must
     mark the large object through the tenured record *)
  let globals = Array.make 1 V.encoded_zero in
  let mem, g, _ = gen globals in
  let big =
    gen_alloc g
      { H.kind = H.Nonptr_array; len = 600; site = 9 } ~birth:0
  in
  let holder =
    gen_alloc_pretenured g (record_hdr ~mask:1 1) ~birth:0
  in
  Mem.Memory.set mem (H.field_addr holder 0) (V.Ptr big);
  globals.(0) <- V.encode_addr holder;
  Collectors.Generational.full g;
  (* the large object survived because the tenured record references it *)
  let holder = V.to_addr (V.decode globals.(0)) in
  let big' = V.to_addr (Mem.Memory.get mem (H.field_addr holder 0)) in
  check_bool "large object survived the sweep" true
    (Mem.Memory.live_block mem big');
  check_bool "large objects do not move" true (Mem.Addr.equal big big');
  (* dropping the holder lets the next full collection sweep it *)
  globals.(0) <- V.encoded_zero;
  Collectors.Generational.full g;
  check_int "everything swept" 0 (Collectors.Generational.live_words g)

(* --- end-to-end pins of the copy engine --- *)

(* Every deterministic counter of Gc_stats (timers excluded). *)
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
    ?tenured_backend ?los_backend ?major_kind ?eager ~barrier ~threshold () =
  let globals = Array.make 4 V.encoded_zero in
  let mem, g, stats =
    gen ~budget ~barrier ~threshold ~parallelism ?mode ?tenured_backend
      ?los_backend ?major_kind ?eager globals
  in
  let prng = Support.Prng.create ~seed:7 in
  for i = 1 to 2500 do
    let keep = Support.Prng.int prng 10 = 0 in
    let a = gen_alloc g (record_hdr ~mask:2 2) ~birth:i in
    Mem.Memory.set mem (H.field_addr a 0) (V.Int i);
    Mem.Memory.set mem (H.field_addr a 1) (V.decode globals.(0));
    if keep then globals.(0) <- V.encode_addr a;
    (* barriered old->young store into a pretenured holder *)
    (if i mod 7 = 3 then
       match V.decode globals.(2) with
       | V.Ptr holder when Collectors.Generational.in_tenured g holder ->
         let loc = H.field_addr holder 0 in
         Mem.Memory.set mem loc (V.Ptr a);
         Collectors.Generational.record_update g ~obj:holder ~loc
       | V.Ptr _ | V.Int _ -> ());
    if i mod 97 = 0 then begin
      let p =
        gen_alloc_pretenured g (record_hdr ~mask:1 1)
          ~birth:i
      in
      Mem.Memory.set mem (H.field_addr p 0) (V.decode globals.(0));
      Collectors.Generational.record_update g ~obj:p ~loc:(H.field_addr p 0);
      globals.(2) <- V.encode_addr p
    end;
    if i mod 501 = 0 then
      globals.(3) <-
        V.encode_addr
          (gen_alloc g
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
  (counters stats, fingerprint (V.decode globals.(0)) [])

(* Digest of one run's counters and surviving-heap fingerprint.  Each
   expected digest below was recorded while the collectors could still
   run on either copy-engine implementation (the word-level engine and
   the safe-API reference now in cheney_ref.ml), with both producing it;
   a behaviour change of the engine shows up as a changed digest. *)
let run_digest (counters, heap) =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) counters
           @ List.map string_of_int heap)))

(* (name, run, expected digest); a mismatch prints every new digest *)
let check_pins pins =
  let bad =
    List.filter_map
      (fun (name, run, expected) ->
        let d = run_digest (run ()) in
        if d = expected then None else Some (Printf.sprintf "    %S -> %S" name d))
      pins
  in
  if bad <> [] then
    Alcotest.failf "engine digests changed; new values:\n%s"
      (String.concat "\n" bad)

let gen_pins () =
  check_pins
    (List.map
       (fun (name, barrier, threshold, digest) ->
         (name, (fun () -> run_gen_workload ~barrier ~threshold ()), digest))
       [ ("ssb", Collectors.Generational.Barrier_ssb, 1,
          "ac5f759cd828a17e7b3c63092acf168b");
         ("remset", Collectors.Generational.Barrier_remset, 1,
          "c7e8ebafe75453d7cd45cfba4e11b8d9");
         ("cards", Collectors.Generational.Barrier_cards, 1,
          "e4aca972cc806a02e7a8b241161189a5");
         ("ssb+aging", Collectors.Generational.Barrier_ssb, 3,
          "1e69e9a0ba2721359f520d529e4b6d89");
         ("remset+aging", Collectors.Generational.Barrier_remset, 3,
          "42cf1d4dd730accc71a888614926021e");
         ("cards+aging", Collectors.Generational.Barrier_cards, 3,
          "9b8637e872e43414e33e41bb90df9728") ])

let semispace_pin () =
  let run () =
    let globals = Array.make 2 V.encoded_zero in
    let mem, s = semi ~budget:(64 * 1024) globals in
    for i = 1 to 800 do
      let a = semi_alloc s (record_hdr ~mask:2 2) ~birth:i in
      Mem.Memory.set mem (H.field_addr a 0) (V.Int i);
      Mem.Memory.set mem (H.field_addr a 1) (V.decode globals.(0));
      if i mod 5 = 0 then globals.(0) <- V.encode_addr a
    done;
    Collectors.Semispace.collect s;
    (counters (Collectors.Semispace.stats s), [ Collectors.Semispace.live_words s ])
  in
  check_pins [ ("semispace", run, "c93b7986d6c19b4d59146410edbb0975") ]

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
        run_gen_workload ~budget:par_budget ~barrier ~threshold:1 ()
      in
      List.iter
        (fun p ->
          let stats_par, heap_par =
            run_gen_workload ~parallelism:p ~budget:par_budget
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
    let globals = Array.make 2 V.encoded_zero in
    let mem = Mem.Memory.create () in
    let stats = Collectors.Gc_stats.create () in
    let s =
      Collectors.Semispace.create mem ~hooks:(global_hooks globals) ~stats
        { (Collectors.Semispace.default_config ~budget_bytes:(256 * 1024)) with
          Collectors.Semispace.parallelism }
    in
    for i = 1 to 800 do
      let a = semi_alloc s (record_hdr ~mask:2 2) ~birth:i in
      Mem.Memory.set mem (H.field_addr a 0) (V.Int i);
      Mem.Memory.set mem (H.field_addr a 1) (V.decode globals.(0));
      if i mod 5 = 0 then globals.(0) <- V.encode_addr a
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
        run_gen_workload ~budget:par_budget ~barrier ~threshold:1 ()
      in
      List.iter
        (fun p ->
          let stats_virt, heap_virt =
            run_gen_workload ~parallelism:p ~budget:par_budget
              ~barrier ~threshold:1 ()
          in
          let stats_real, heap_real =
            run_gen_workload ~parallelism:p ~mode:Collectors.Par_drain.Real
              ~budget:par_budget ~barrier ~threshold:1 ()
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
    let globals = Array.make 2 V.encoded_zero in
    let mem = Mem.Memory.create () in
    let stats = Collectors.Gc_stats.create () in
    let s =
      Collectors.Semispace.create mem ~hooks:(global_hooks globals) ~stats
        { (Collectors.Semispace.default_config ~budget_bytes:(256 * 1024)) with
          Collectors.Semispace.parallelism;
          parallelism_mode = mode }
    in
    for i = 1 to 800 do
      let a = semi_alloc s (record_hdr ~mask:2 2) ~birth:i in
      Mem.Memory.set mem (H.field_addr a 0) (V.Int i);
      Mem.Memory.set mem (H.field_addr a 1) (V.decode globals.(0));
      if i mod 5 = 0 then globals.(0) <- V.encode_addr a
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
      run_gen_workload ~parallelism ~budget:par_budget ~barrier
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
    let a = los_alloc los hdr ~birth:0 in
    let b = los_alloc los hdr ~birth:0 in
    ignore (Collectors.Los.mark los a);
    let freed = Collectors.Los.sweep los ~deaths:None in
    check_int "sweep freed b" 603 freed;
    let c = los_alloc los hdr ~birth:0 in
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
    run_gen_workload ~barrier ~threshold:1 ()
  in
  List.iter
    (fun tb ->
      List.iter
        (fun lb ->
          let stats, heap =
            run_gen_workload ~tenured_backend:tb ~los_backend:lb
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
        run_gen_workload ~parallelism ~budget:par_budget ~barrier
          ~threshold ()
      in
      List.iter
        (fun (tb, lb) ->
          let stats, heap =
            run_gen_workload ~parallelism ~budget:par_budget
              ~tenured_backend:tb ~los_backend:lb ~barrier
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
          match grant_opt (Alloc.Backend.alloc be words) with
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
            match grant_opt (Alloc.Free_list.alloc fl w) with
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
      let frag = Alloc.Backend.frag (Alloc.Free_list.backend fl) in
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
        match grant_opt (Alloc.Size_class.alloc sc big) with
        | Some b -> b
        | None -> QCheck.assume_fail ()
      in
      Alloc.Size_class.free sc b1 ~words:big;
      (* a small grant must not carve the oversize hole *)
      let small = 3 + Support.Prng.int prng 10 in
      let s =
        match grant_opt (Alloc.Size_class.alloc sc small) with
        | Some b -> b
        | None -> QCheck.assume_fail ()
      in
      let frag_after_small = Alloc.Backend.frag (Alloc.Size_class.backend sc) in
      (* the oversize hole is reused exactly by an equal request *)
      let b2 =
        match grant_opt (Alloc.Size_class.alloc sc big) with
        | Some b -> b
        | None -> QCheck.assume_fail ()
      in
      (not (Mem.Addr.equal s b1))
      && frag_after_small.Alloc.Backend.free_words = big
      && Mem.Addr.equal b1 b2
      && Alloc.Backend.frag (Alloc.Size_class.backend sc) |> fun f ->
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
        (match grant_opt (Alloc.Backend.alloc be words) with
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
    (fun (name, barrier, threshold, backend) ->
      let stats_c, heap_c =
        run_gen_workload ~barrier ~threshold ~tenured_backend:backend ()
      in
      let stats_m, heap_m =
        run_gen_workload ~barrier ~threshold ~tenured_backend:backend
          ~major_kind:Collectors.Generational.Mark_sweep ()
      in
      Alcotest.(check (list int))
        (name ^ ": identical surviving heap")
        heap_c heap_m;
      let pick = List.filter (fun (k, _) -> mutator_side k) in
      Alcotest.(check (list (pair string int)))
        (name ^ ": identical mutator-side counters")
        (pick stats_c) (pick stats_m))
    [ ("ssb/bump", Collectors.Generational.Barrier_ssb, 1, Alloc.Backend.Bump);
      ("ssb/free_list", Collectors.Generational.Barrier_ssb, 1,
       Alloc.Backend.Free_list);
      ("ssb/size_class", Collectors.Generational.Barrier_ssb, 1,
       Alloc.Backend.Size_class);
      ("remset/free_list", Collectors.Generational.Barrier_remset, 1,
       Alloc.Backend.Free_list);
      ("cards/free_list", Collectors.Generational.Barrier_cards, 1,
       Alloc.Backend.Free_list);
      ("cards+aging/free_list", Collectors.Generational.Barrier_cards, 3,
       Alloc.Backend.Free_list);
      ("ssb+aging/free_list", Collectors.Generational.Barrier_ssb, 3,
       Alloc.Backend.Free_list) ]

(* the copy engine under the mark-sweep major (promotions placed by the
   free-list backend), plus the copying-major run over the same backend *)
let ms_pins () =
  check_pins
    (List.map
       (fun (name, barrier, threshold, major_kind, digest) ->
         ( name,
           (fun () ->
             run_gen_workload ~barrier ~threshold
               ~tenured_backend:Alloc.Backend.Free_list ~major_kind ()),
           digest ))
       [ ("ssb", Collectors.Generational.Barrier_ssb, 1,
          Collectors.Generational.Mark_sweep,
          "0f00bf4f05e302ed1c37d09086a6358a");
         ("cards", Collectors.Generational.Barrier_cards, 1,
          Collectors.Generational.Mark_sweep,
          "55d79211321c94b7f5a7a70ccf141ea3");
         ("ssb+aging", Collectors.Generational.Barrier_ssb, 3,
          Collectors.Generational.Mark_sweep,
          "36c58cdee7c7ed5b4b0db01851157a5f");
         ("ssb copying", Collectors.Generational.Barrier_ssb, 1,
          Collectors.Generational.Copying,
          "ac5f759cd828a17e7b3c63092acf168b") ])

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
        run_gen_workload ~parallelism ?mode ~budget:par_budget
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
        run_gen_workload ~parallelism ~budget:par_budget ~barrier
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
  let globals = Array.make 2 V.encoded_zero in
  let mem, g, stats =
    gen ~tenured_backend:Alloc.Backend.Free_list
      ~major_kind:Collectors.Generational.Mark_sweep globals
  in
  Alcotest.(check string)
    "stats label" "mark_sweep" stats.Collectors.Gc_stats.major_kind;
  let keep =
    gen_alloc_pretenured g (record_hdr ~mask:0 1) ~birth:0
  in
  Mem.Memory.set mem (H.field_addr keep 0) (V.Int 77);
  globals.(0) <- V.encode_addr keep;
  (* a batch of doomed pretenured records: never rooted, they die at the
     first major and must come back as holes *)
  for i = 1 to 60 do
    ignore
      (gen_alloc_pretenured g
         (record_hdr ~site:1 ~mask:0 2) ~birth:i)
  done;
  Collectors.Generational.full g;
  check_bool "sweep freed words" true
    (stats.Collectors.Gc_stats.words_swept_free > 0);
  check_bool "words marked" true (stats.Collectors.Gc_stats.words_marked > 0);
  check_bool "holes visible in the gauges" true
    (stats.Collectors.Gc_stats.tenured_free_words > 0);
  check_bool "survivor address stable" true
    (V.equal (V.decode globals.(0)) (V.Ptr keep));
  check_int "survivor intact" 77
    (V.to_int (Mem.Memory.get mem (H.field_addr keep 0)));
  let free_before = stats.Collectors.Gc_stats.tenured_free_words in
  (* fresh pretenured grants: first-fit serves them from the reclaimed
     holes (address-ordered, below the frontier) *)
  for i = 1 to 10 do
    let p =
      gen_alloc_pretenured g
        (record_hdr ~site:2 ~mask:0 2) ~birth:(100 + i)
    in
    globals.(1) <- V.encode_addr p
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
        match grant_opt (Alloc.Backend.alloc be ((H.header_words ()) + 3)) with
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
      let eng =
        Collectors.Mark_sweep.create ~mem ~tenured:space ~los
          ~marks:(Bytes.create (Mem.Space.size_words space))
          ~worklist:(Support.Vec.create ()) ~site_tallies:false ()
      in
      let cells = Array.map V.encode roots in
      Array.iteri (fun i _ -> Collectors.Mark_sweep.visit_root eng cells i) cells;
      Collectors.Mark_sweep.drain eng;
      let free0 = (Alloc.Backend.frag be).Alloc.Backend.free_words in
      let deaths = Collectors.Site_tally.create () in
      let swept =
        Collectors.Mark_sweep.sweep eng ~backend:be ~deaths:(Some deaths)
      in
      (* every object is a 3-field record *)
      let died =
        List.fold_left
          (fun acc (_, objects, _, _) -> acc + (objects * (H.header_words () + 3)))
          0 (Collectors.Site_tally.rows deaths)
      in
      let free1 = (Alloc.Backend.frag be).Alloc.Backend.free_words in
      let _, after = snapshot () in
      before = after
      && Collectors.Mark_sweep.words_marked_tenured eng = reachable_words
      && swept = died
      && free1 - free0 = swept
      && Alloc.Backend.live_words be = reachable_words)

(* --- the reference engine (Cheney_ref) --- *)

(* One generated collection, built the same way on every call with the
   same seed: a from-space of records (random masks), pointer arrays and
   non-pointer arrays carrying random sites, ages and survivor bits,
   whose pointer fields share, form cycles and leave the region (into
   old objects and large objects); old objects whose locations and
   fields the collection visits the way it visits barrier entries, and
   whose block it then walks as a pretenured region ([scan_region]);
   and, under backend placement, a to-space with holes punched into
   it. *)
module Gen_heap = struct
  type t = {
    mem : Mem.Memory.t;
    from : Mem.Space.t;
    old : Mem.Space.t;
    to_space : Mem.Space.t;
    young_to : Mem.Space.t;
    los : Collectors.Los.t;
    large : Mem.Addr.t array;
    globals : int array;  (* encoded root words *)
    locs : Mem.Addr.t list;   (* [visit_loc] targets *)
    objs : Mem.Addr.t list;   (* [visit_object_fields] targets *)
    promote_alloc : (int -> Mem.Addr.t) option;
  }

  let build ~seed ~n ~backend =
    let prng = Support.Prng.create ~seed in
    let int k = Support.Prng.int prng k in
    let mem = Mem.Memory.create () in
    let place space (h : H.t) =
      match grant_opt (Mem.Space.grant space (H.object_words h)) with
      | Some a ->
        H.write mem a h ~birth:(int 1000);
        a
      | None -> assert false
    in
    let words shapes =
      Array.fold_left (fun acc h -> acc + H.object_words h) 0 shapes
    in
    let young_shapes =
      Array.init n (fun _ ->
        let len = int 7 in
        let kind =
          match int 4 with
          | 0 | 1 -> H.Record { mask = int (1 lsl len) }
          | 2 -> H.Ptr_array
          | _ -> H.Nonptr_array
        in
        { H.kind; len; site = 1 + int 12 })
    in
    let from_words = words young_shapes in
    let old_shapes =
      Array.init (1 + int 4) (fun _ ->
        let len = 1 + int 6 in
        let kind =
          if int 2 = 0 then H.Ptr_array else H.Record { mask = int (1 lsl len) }
        in
        { H.kind; len; site = 13 })
    in
    (* the old space is a block issued before the from-space, the large
       objects blocks issued after it, so the engine's block test meets
       ids on both sides of the from-space's; a parallel-drain filler
       may sit among the old objects, as in a pretenured region *)
    let filler_words = if int 2 = 0 then 0 else H.header_words () + int 3 in
    let filler_at = int (Array.length old_shapes + 1) in
    let old = Mem.Space.create mem ~words:(words old_shapes + filler_words) in
    let add_filler () =
      if filler_words > 0 then
        match grant_opt (Mem.Space.grant old filler_words) with
        | Some a ->
          H.write_filler_c (Mem.Memory.cells mem a) ~off:(Mem.Addr.offset a)
            ~words:filler_words
        | None -> assert false
    in
    let olds =
      Array.mapi
        (fun i h ->
          if i = filler_at then add_filler ();
          place old h)
        old_shapes
    in
    if filler_at = Array.length old_shapes then add_filler ();
    let from = Mem.Space.create mem ~words:from_words in
    let young = Array.map (place from) young_shapes in
    let los = Collectors.Los.create mem in
    let large =
      Array.init (int 4) (fun _ ->
        let kind = if int 3 = 0 then H.Nonptr_array else H.Ptr_array in
        los_alloc los { H.kind; len = 1 + int 6; site = 14 }
          ~birth:(int 1000))
    in
    let pick () =
      match int 10 with
      | 0 -> V.null
      | 1 | 2 -> V.Int (int 1000 - 500)
      | 3 when Array.length large > 0 -> V.Ptr large.(int (Array.length large))
      | 4 -> V.Ptr olds.(int (Array.length olds))
      | _ -> V.Ptr young.(int n)
    in
    let fill a =
      let h = H.read mem a in
      for i = 0 to h.H.len - 1 do
        Mem.Memory.set mem (H.field_addr a i)
          (if H.is_pointer_field h i then pick () else V.Int (int 1000))
      done
    in
    Array.iter fill young;
    Array.iter fill olds;
    Array.iter fill large;
    Array.iter
      (fun a ->
        H.set_age mem a (int 4);
        if int 2 = 0 then H.set_survivor mem a)
      young;
    let globals = Array.init (1 + int 5) (fun _ -> V.encode (pick ())) in
    let some_old () = olds.(int (Array.length olds)) in
    let locs =
      List.init (int 5) (fun _ ->
        let a = some_old () in
        H.field_addr a (int (H.read mem a).H.len))
    in
    let objs = List.init (int 3) (fun _ -> some_old ()) in
    (* promotions placed by a free-list backend over a to-space whose
       earlier occupants left holes behind *)
    let to_space, promote_alloc =
      if backend then begin
        let chunks =
          Array.init (1 + int 6) (fun _ -> H.header_words () + int 12)
        in
        let to_space =
          Mem.Space.create mem
            ~words:(Array.fold_left ( + ) from_words chunks + 8)
        in
        let be = Alloc.Registry.of_space Alloc.Backend.Free_list mem to_space in
        let grants =
          Array.map
            (fun w ->
              match grant_opt (Alloc.Backend.alloc be w) with
              | Some a ->
                H.write mem a
                  { H.kind = H.Nonptr_array; len = w - H.header_words (); site = 15 }
                  ~birth:0;
                (a, w)
              | None -> assert false)
            chunks
        in
        Array.iter
          (fun (a, w) -> if int 2 = 0 then Alloc.Backend.free be a ~words:w)
          grants;
        (to_space, Some (fun w -> Alloc.Backend.alloc be w))
      end
      else (Mem.Space.create mem ~words:(from_words + 8), None)
    in
    let young_to = Mem.Space.create mem ~words:(from_words + 8) in
    { mem; from; old; to_space; young_to; los; large; globals; locs; objs;
      promote_alloc }
end

(* what the engine and the reference must agree on *)
module type ENGINE = sig
  type t

  val create :
    mem:Mem.Memory.t ->
    from:Mem.Space.t ->
    to_space:Mem.Space.t ->
    ?aging:Collectors.Cheney.aging ->
    ?remember:(loc:Mem.Addr.t -> owner:Mem.Addr.t option -> unit) ->
    ?promote_alloc:(int -> Mem.Addr.t) ->
    ?eager:bool ->
    site_tallies:bool ->
    los:Collectors.Los.t option ->
    trace_los:bool ->
    promoting:bool ->
    unit ->
    t

  val visit_root : t -> int array -> int -> unit
  val visit_loc : t -> Mem.Addr.t -> unit
  val visit_object_fields : t -> Mem.Addr.t -> unit
  val scan_region : t -> Mem.Addr.t -> until:Mem.Addr.t -> int
  val drain : t -> unit
  val words_copied : t -> int
  val words_promoted : t -> int
  val words_scanned : t -> int
  val site_survivals : t -> (int * int * int * int) list
end

(* the engine under test, its survival table read as rows *)
module Cheney_engine = struct
  include Collectors.Cheney

  let site_survivals e = Collectors.Site_tally.rows (site_survivals e)
end

(* One collection of a freshly built heap; returns every observable as a
   labelled, structurally comparable value. *)
let run_engine (module E : ENGINE) ~seed ~n ~threshold ~backend ~eager
    ~trace_los =
  let h = Gen_heap.build ~seed ~n ~backend in
  let mem = h.Gen_heap.mem in
  let remembered = ref [] in
  let aging =
    Option.map
      (fun threshold -> { Collectors.Cheney.young_to = h.Gen_heap.young_to; threshold })
      threshold
  in
  let e =
    E.create ~mem ~from:h.Gen_heap.from
      ~to_space:h.Gen_heap.to_space ?aging
      ~remember:(fun ~loc ~owner -> remembered := (loc, owner) :: !remembered)
      ?promote_alloc:h.Gen_heap.promote_alloc ~eager ~site_tallies:true
      ~los:(Some h.Gen_heap.los) ~trace_los ~promoting:true ()
  in
  Array.iteri
    (fun i _ -> E.visit_root e h.Gen_heap.globals i)
    h.Gen_heap.globals;
  List.iter (E.visit_loc e) h.Gen_heap.locs;
  List.iter (E.visit_object_fields e) h.Gen_heap.objs;
  let region_words =
    E.scan_region e (Mem.Space.base h.Gen_heap.old)
      ~until:(Mem.Space.frontier h.Gen_heap.old)
  in
  E.drain e;
  let cells space = `Cells (Array.copy (Mem.Memory.cells mem (Mem.Space.base space))) in
  let large_cells =
    Array.to_list
      (Array.map
         (fun a ->
           Array.sub (Mem.Memory.cells mem a) (Mem.Addr.offset a)
             (H.object_words_at mem a))
         h.Gen_heap.large)
  in
  let deaths = Collectors.Site_tally.create () in
  let freed = Collectors.Los.sweep h.Gen_heap.los ~deaths:(Some deaths) in
  [ ("to-space", cells h.Gen_heap.to_space);
    ("young to-space", cells h.Gen_heap.young_to);
    ("from-space", cells h.Gen_heap.from);
    ("old objects", cells h.Gen_heap.old);
    ("large objects", `Large large_cells);
    ("roots", `Roots (Array.copy h.Gen_heap.globals));
    ( "words copied/promoted/scanned, region words",
      `Ints
        [ E.words_copied e; E.words_promoted e; E.words_scanned e;
          region_words ] );
    ("site survivals", `Sites (E.site_survivals e));
    ("remember calls", `Remembered (List.rev !remembered));
    ("los sweep", `Sweep (freed, Collectors.Site_tally.rows deaths)) ]

(* every option the engine takes: header layout, aging threshold,
   backend-placed promotion, eager evacuation, large-object tracing *)
let reference_configs =
  let bools = [ false; true ] in
  List.concat_map
    (fun layout ->
      List.concat_map
        (fun threshold ->
          List.concat_map
            (fun backend ->
              List.concat_map
                (fun eager ->
                  List.map
                    (fun trace_los -> (layout, threshold, backend, eager, trace_los))
                    bools)
                bools)
            bools)
        [ None; Some 2; Some 3 ])
    [ H.Classic; H.Packed ]

let describe_config (layout, threshold, backend, eager, trace_los) =
  Printf.sprintf "%s, aging %s, %s, eager %b, trace_los %b"
    (match layout with H.Classic -> "classic" | H.Packed -> "packed")
    (match threshold with None -> "off" | Some k -> string_of_int k)
    (if backend then "free-list placement" else "frontier")
    eager trace_los

(* Differential property: the engine and the safe-API reference engine,
   run on the same generated heap with the same roots, locations and
   objects, leave bit-identical spaces and roots, count the same words,
   tally the same sites, make the same remember calls in the same
   order, and leave the same large objects to the sweep. *)
let cheney_matches_reference_prop =
  QCheck.Test.make ~name:"Cheney matches the safe-API reference engine"
    ~count:40
    QCheck.(pair (int_range 1 40) (int_range 0 1000000))
    (fun (n, seed) ->
      (* shrinking may step below the generator's range *)
      QCheck.assume (n >= 1);
      List.iter
        (fun ((layout, threshold, backend, eager, trace_los) as config) ->
          with_layout layout @@ fun () ->
          let run engine =
            run_engine engine ~seed ~n ~threshold ~backend ~eager ~trace_los
          in
          List.iter2
            (fun (what, got) (_, want) ->
              if got <> want then
                QCheck.Test.fail_reportf "%s differ (%s)" what
                  (describe_config config))
            (run (module Cheney_engine : ENGINE))
            (run (module Cheney_ref : ENGINE)))
        reference_configs;
      true)

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
          match grant_opt (Mem.Space.grant from ((H.header_words ()) + 3)) with
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
      let globals =
        Array.init 4 (fun _ -> V.encode_addr objs.(Support.Prng.int prng n))
      in
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
        Array.iter (fun w -> go (V.decode w)) globals;
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
          ~from
          ~to_space ~los:None ~trace_los:false ~promoting:false
          ~site_tallies:false ~parallelism ~mode ~seed ()
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
            Rstack.Root.Batch.push batch globals i)
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
      let globals = Array.make 4 V.encoded_zero in
      let mem, s = semi ~budget:(512 * 1024) globals in
      let prng = Support.Prng.create ~seed in
      (* build n records, each pointing to up to two earlier ones, plus an
         int payload; roots = 4 random picks *)
      let objs = Array.make n Mem.Addr.null in
      for i = 0 to n - 1 do
        let a = semi_alloc s (record_hdr ~mask:0b110 3) ~birth:0 in
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
        globals.(r) <- V.encode_addr objs.(Support.Prng.int prng n)
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
        Array.iter (fun w -> go (V.decode w)) globals;
        List.sort compare !acc
      in
      let before = snapshot () in
      Collectors.Semispace.collect s;
      let after = snapshot () in
      before = after)

(* --- the scalar allocation entry against the header-record wrapper ---

   A generated stream of allocation requests, rejected ones included,
   runs three ways on fresh collectors of one configuration: A through
   the scalar entry [Collector.alloc_fields]; B through the [Header.t]
   wrapper [Collector.alloc]/[alloc_pretenured] (a bad tag has no
   [kind], so B skips those); and C through the scalar entry fed only
   the requests A accepted.  A and B must return the same addresses and
   heap words and raise the same messages; A and C must agree as well,
   which shows a rejected request bumped and granted nothing.  A refuses
   exactly the requests a model of the layout's rules refuses, with its
   message.  All three
   end with equal counters and site tallies.  The streams reach the
   nursery, the pretenured area and the large-object space. *)

type alloc_req = {
  r_tag : int;
  r_len : int;
  r_mask : int;
  r_site : int;
  r_pre : bool;
}

let alloc_req_gen =
  let open QCheck.Gen in
  let* r_tag =
    frequency
      [ (6, return H.tag_record);
        (2, return H.tag_ptr_array);
        (2, return H.tag_nonptr_array);
        (1, oneofl [ H.tag_forwarded; 7; -1 ]) ]
  in
  let* r_len =
    if r_tag = H.tag_record then
      frequency [ (8, 0 -- 12); (2, 25 -- 44); (1, return (-1)) ]
    else frequency [ (8, 0 -- 20); (2, 600 -- 700); (1, return (-1)) ]
  in
  let* r_mask =
    let width = max 0 (min r_len 44) in
    frequency
      [ (8, map (fun m -> m land ((1 lsl width) - 1)) (0 -- max_int));
        (1, return (1 lsl width)) ]
  in
  let* r_site =
    frequency [ (10, 0 -- 15); (1, oneofl [ -1; H.max_site + 1 ]) ]
  in
  let* r_pre = bool in
  return { r_tag; r_len; r_mask; r_site; r_pre }

let print_alloc_req r =
  Printf.sprintf "{tag=%d len=%d mask=%#x site=%d pre=%b}" r.r_tag r.r_len
    r.r_mask r.r_site r.r_pre

type entry_config = {
  e_layout : H.layout;
  e_collector : [ `Semi | `Gen_copying | `Gen_mark_sweep ];
}

(* one collector of [cfg], its root ring and memory *)
let entry_collector cfg =
  let mem = Mem.Memory.create () in
  let globals = Array.make 8 V.encoded_zero in
  let hooks = { (global_hooks globals) with Collectors.Hooks.profiling = true } in
  let stats = Collectors.Gc_stats.create () in
  let budget_bytes = 128 * 1024 in
  let col =
    match cfg.e_collector with
    | `Semi ->
      Collectors.Collector.Semispace
        (Collectors.Semispace.create mem ~hooks ~stats
           (Collectors.Semispace.default_config ~budget_bytes))
    | (`Gen_copying | `Gen_mark_sweep) as k ->
      let base = Collectors.Generational.default_config ~budget_bytes in
      let cfg =
        if k = `Gen_copying then
          { base with Collectors.Generational.nursery_bytes_max = 2 * 1024 }
        else
          { base with
            Collectors.Generational.nursery_bytes_max = 2 * 1024;
            major_kind = Collectors.Generational.Mark_sweep;
            tenured_backend = Alloc.Backend.Free_list }
      in
      Collectors.Collector.Generational
        (Collectors.Generational.create mem ~hooks ~stats cfg)
  in
  (mem, globals, col)

type outcome = Granted of Mem.Addr.t * int list | Refused of string

(* run [reqs] through [alloc]; an accepted object's words are read back
   right away, and every third accepted object is kept in the root ring *)
let run_entry (mem, globals, col) alloc reqs =
  let accepted = ref 0 in
  let outcomes =
    List.map
      (fun r ->
        match alloc col r ~birth:!accepted with
        | a ->
          let cells = Mem.Memory.cells mem a and off = Mem.Addr.offset a in
          let words =
            Array.to_list (Array.sub cells off (H.object_words_c cells ~off))
          in
          if !accepted mod 3 = 0 then
            globals.((!accepted / 3) mod 8) <- V.encode_addr a;
          incr accepted;
          Granted (a, words)
        | exception Invalid_argument msg -> Refused msg
        | exception Collectors.Budget.Exhausted msg -> Refused ("exhausted: " ^ msg))
      reqs
  in
  let stats = Collectors.Collector.stats col in
  let result =
    ( outcomes,
      counters stats,
      let rows = ref [] in
      Collectors.Collector.flush_site_allocs col (fun tab ->
        rows := Collectors.Site_tally.rows tab);
      !rows )
  in
  Collectors.Collector.destroy col;
  result

let scalar_entry col r ~birth =
  Collectors.Collector.alloc_fields col ~pretenure:r.r_pre ~tag:r.r_tag
    ~len:r.r_len ~mask:r.r_mask ~site:r.r_site ~birth

let header_entry col r ~birth =
  let kind =
    if r.r_tag = H.tag_record then H.Record { mask = r.r_mask }
    else if r.r_tag = H.tag_ptr_array then H.Ptr_array
    else H.Nonptr_array
  in
  let hdr = { H.kind; len = r.r_len; site = r.r_site } in
  if r.r_pre then Collectors.Collector.alloc_pretenured col hdr ~birth
  else Collectors.Collector.alloc col hdr ~birth

let valid_tag t =
  t = H.tag_record || t = H.tag_ptr_array || t = H.tag_nonptr_array

(* the layout's rules, in [Header.validate]'s order (the generated
   arrays stay far below the packed length limit) *)
let expected_refusal r =
  if r.r_len < 0 then Some "Header: negative length"
  else if r.r_site < 0 || r.r_site > H.max_site then
    Some "Header: site out of range"
  else if r.r_tag = H.tag_record then
    if r.r_len > H.max_record_fields () then Some "Header: record too large"
    else if r.r_mask lsr r.r_len <> 0 then Some "Header: mask wider than record"
    else None
  else if valid_tag r.r_tag then None
  else Some "Header: bad tag"

let scalar_entry_matches_header_prop =
  QCheck.Test.make ~name:"scalar alloc entry = header wrapper" ~count:40
    (QCheck.make
       ~print:(fun l -> String.concat "; " (List.map print_alloc_req l))
       QCheck.Gen.(list_size (100 -- 400) alloc_req_gen))
    (fun reqs ->
      List.for_all
        (fun cfg ->
          H.set_layout cfg.e_layout;
          Fun.protect ~finally:(fun () -> H.set_layout H.Classic) @@ fun () ->
          let a_out, a_counters, a_sites =
            run_entry (entry_collector cfg) scalar_entry reqs
          in
          let b_out, b_counters, b_sites =
            run_entry (entry_collector cfg) header_entry
              (List.filter (fun r -> valid_tag r.r_tag) reqs)
          in
          (* what passed validation: granted, or refused for budget *)
          let validated = function
            | Granted _ -> true
            | Refused msg -> not (String.starts_with ~prefix:"Header: " msg)
          in
          let accepted =
            List.filter_map
              (fun (r, o) -> if validated o then Some r else None)
              (List.combine reqs a_out)
          in
          let c_out, c_counters, c_sites =
            run_entry (entry_collector cfg) scalar_entry accepted
          in
          let a_valid =
            List.filter_map
              (fun (r, o) -> if valid_tag r.r_tag then Some o else None)
              (List.combine reqs a_out)
          in
          let a_validated = List.filter validated a_out in
          let refusals_as_expected =
            List.for_all2
              (fun r o ->
                match o, expected_refusal r with
                | Refused msg, Some expected -> msg = expected
                | Refused msg, None ->
                  not (String.starts_with ~prefix:"Header: " msg)
                | Granted _, expected -> expected = None)
              reqs a_out
          in
          a_valid = b_out && a_validated = c_out && refusals_as_expected
          && a_counters = b_counters && a_counters = c_counters
          && a_sites = b_sites && a_sites = c_sites)
        (List.concat_map
           (fun e_layout ->
             List.map
               (fun e_collector -> { e_layout; e_collector })
               [ `Semi; `Gen_copying; `Gen_mark_sweep ])
           [ H.Classic; H.Packed ]))

let () =
  Alcotest.run "gc"
    [ ( "los",
        [ Alcotest.test_case "mark and sweep" `Quick los_mark_sweep ] );
      ( "site tally",
        [ Alcotest.test_case "rows sorted by site" `Quick tally_sorted;
          Alcotest.test_case "clear then reuse" `Quick tally_clear_reuse;
          Alcotest.test_case "merge" `Quick tally_merge;
          Alcotest.test_case "site range" `Quick tally_site_range;
          Alcotest.test_case "no host words once grown" `Quick
            tally_no_host_words ] );
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
          Alcotest.test_case "pretenured region loop" `Quick gen_region_loop;
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
            aging_copies_more_than_immediate;
          Alcotest.test_case "recycled major: stale pointer fails" `Quick
            recycled_major_stale_pointer;
          Alcotest.test_case "recycled aging minor: stale pointer fails"
            `Quick recycled_aging_minor_stale_pointer ] );
      ( "engine-pins",
        [ Alcotest.test_case "pinned stats (generational)" `Quick gen_pins;
          Alcotest.test_case "pinned stats (semispace)" `Quick semispace_pin ] );
      ( "reference-engine",
        [ QCheck_alcotest.to_alcotest cheney_matches_reference_prop ] );
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
          Alcotest.test_case "pinned stats" `Quick ms_pins;
          Alcotest.test_case "reclaims and reuses holes" `Quick
            ms_reclaims_and_reuses_holes;
          QCheck_alcotest.to_alcotest ms_sweep_safety_prop ] );
      ( "alloc-entry",
        [ QCheck_alcotest.to_alcotest scalar_entry_matches_header_prop ] );
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
