(* Runtime façade tests: operand typing, rooting through collections
   (slots, registers, globals, callee-save spills, compute traces),
   simulated exceptions — plus a randomized "torture" property: random
   mutator programs must compute identical results under every collector
   configuration, with the heap verified after every collection. *)

module R = Gsc.Runtime
module T = Rstack.Trace
module V = Mem.Value

let check_int = Alcotest.(check int)

let budget = 256 * 1024

let mk ?(cfg = Gsc.Config.generational ~budget_bytes:budget) () = R.create cfg

let with_rt ?cfg f =
  let rt = mk ?cfg () in
  Fun.protect ~finally:(fun () -> R.destroy rt) @@ fun () -> f rt

(* --- operand typing --- *)

let operand_typing () =
  with_rt @@ fun rt ->
  let site = R.register_site rt ~name:"s" in
  let key = R.register_frame rt ~name:"f" ~slots:(Workloads.Dsl.slots "pi") in
  R.call0 rt ~key (fun () ->
    (* P field must not take an integer *)
    (match R.alloc_record1 rt ~site ~mask:0b1 ~dst:(R.to_slot 0) (R.imm 3) with
     | () -> Alcotest.fail "P of Imm must fail"
     | exception Invalid_argument _ -> ());
    (* I field must not take a pointer *)
    R.alloc_record1 rt ~site ~mask:0 ~dst:(R.to_slot 0) (R.imm 1);
    (match
       R.alloc_record1 rt ~site ~mask:0 ~dst:(R.to_slot 0) (R.slot 0)
     with
     | () -> Alcotest.fail "I of pointer must fail"
     | exception Invalid_argument _ -> ());
    (* store typing must agree with the header mask *)
    R.alloc_record2 rt ~site ~mask:0b10 ~dst:(R.to_slot 0) (R.imm 1) R.nil;
    (match R.store_field rt ~obj:(R.slot 0) ~idx:0 ~ptr:true R.nil with
     | () -> Alcotest.fail "pointer store into int field must fail"
     | exception Invalid_argument _ -> ());
    (match R.store_field rt ~obj:(R.slot 0) ~idx:1 ~ptr:false (R.imm 2) with
     | () -> Alcotest.fail "int store into pointer field must fail"
     | exception Invalid_argument _ -> ());
    (* bounds *)
    (match R.field_int rt ~obj:(R.slot 0) ~idx:7 with
     | _ -> Alcotest.fail "bounds"
     | exception Invalid_argument _ -> ());
    (* null deref *)
    (match R.obj_length rt ~obj:R.nil with
     | _ -> Alcotest.fail "null deref"
     | exception Invalid_argument _ -> ())) ()

(* --- word operands allocate no host memory ---

   Each operation a workload's inner loop runs, in a loop of its own
   after one warm-up round (the barrier buffers start with room for its
   stores): the [Gc.minor_words] delta must be 0, under the release and
   the dev profile alike.  The
   call bodies are built once, as the workloads build theirs, and the
   nursery is large enough that no simulated collection runs inside a
   measured loop. *)
let operands_allocate_nothing () =
  let cfg =
    { (Gsc.Config.generational ~budget_bytes:(8 * 1024 * 1024)) with
      Gsc.Config.nursery_bytes_max = 1024 * 1024 }
  in
  with_rt ~cfg @@ fun rt ->
  let site = R.register_site rt ~name:"s" in
  let key = R.register_frame rt ~name:"f" ~slots:(Workloads.Dsl.slots "ppp") in
  let callee =
    R.register_frame rt ~name:"g" ~slots:(Workloads.Dsl.slots "ppi")
  in
  let body i = i + R.depth rt in
  let ops =
    [ ("load_field", fun _ ->
        R.load_field rt ~obj:(R.slot 1) ~idx:1 ~dst:(R.to_slot 2));
      ("store_field", fun _ ->
        R.store_field rt ~obj:(R.slot 1) ~idx:1 ~ptr:true (R.slot 0));
      ("field_int", fun i ->
        ignore (Sys.opaque_identity (i + R.field_int rt ~obj:(R.slot 1) ~idx:0)));
      ("alloc_record1", fun i ->
        R.alloc_record1 rt ~site ~mask:0 ~dst:(R.to_slot 2) (R.imm i));
      ("alloc_record2", fun i ->
        R.alloc_record2 rt ~site ~mask:0b10 ~dst:(R.to_slot 2) (R.imm i)
          (R.slot 1));
      ("alloc_record3", fun i ->
        R.alloc_record3 rt ~site ~mask:0b110 ~dst:(R.to_slot 2) (R.imm i)
          (R.slot 1) R.nil);
      ("alloc_record4", fun i ->
        R.alloc_record4 rt ~site ~mask:0b1010 ~dst:(R.to_slot 2) (R.imm i)
          (R.slot 1) (R.imm i) (R.slot 0));
      ("call0", fun i -> ignore (Sys.opaque_identity (R.call0 rt ~key:callee body i)));
      ("call1", fun i ->
        ignore (Sys.opaque_identity (R.call1 rt ~key:callee (R.slot 0) body i)));
      ("call2", fun i ->
        ignore
          (Sys.opaque_identity
             (R.call2 rt ~key:callee (R.slot 0) (R.slot 1) body i)));
      ("call3", fun i ->
        ignore
          (Sys.opaque_identity
             (R.call3 rt ~key:callee (R.slot 0) (R.slot 1) (R.imm i) body i))) ]
  in
  let n = 1000 in
  R.call0 rt ~key (fun () ->
    R.alloc_record2 rt ~site ~mask:0b10 ~dst:(R.to_slot 0) (R.imm 0) R.nil;
    R.alloc_record2 rt ~site ~mask:0b10 ~dst:(R.to_slot 1) (R.imm 1)
      (R.slot 0);
    List.iter
      (fun (name, op) ->
        for i = 1 to n do op i done;
        R.collect_now rt;
        let gcs = Collectors.Gc_stats.gcs (R.stats rt) in
        let before = Gc.minor_words () in
        for i = 1 to n do op i done;
        let words = Gc.minor_words () -. before in
        check_int (name ^ ": no simulated collection") gcs
          (Collectors.Gc_stats.gcs (R.stats rt));
        Alcotest.(check (float 0.)) (name ^ ": host words") 0. words)
      ops)
    ()

(* --- rooting through collections --- *)

let churn rt site slot n =
  for i = 1 to n do
    R.alloc_record1 rt ~site ~mask:0 ~dst:(R.to_slot slot) (R.imm i)
  done

let registers_are_roots () =
  with_rt @@ fun rt ->
  let site = R.register_site rt ~name:"s" in
  let regs = Rstack.Trace_table.plain_regs () in
  regs.(3) <- T.Reg_ptr;
  let key =
    R.register_frame_regs rt ~name:"f" ~slots:(Workloads.Dsl.slots "p") ~regs
  in
  R.call0 rt ~key (fun () ->
    R.alloc_record1 rt ~site ~mask:0 ~dst:(R.to_reg 3) (R.imm 99);
    churn rt site 0 20000;
    check_int "register root survived" 99
      (R.field_int rt ~obj:(R.reg 3) ~idx:0)) ()

let callee_save_spill_through_gc () =
  with_rt @@ fun rt ->
  let site = R.register_site rt ~name:"s" in
  let caller_regs = Rstack.Trace_table.plain_regs () in
  caller_regs.(7) <- T.Reg_ptr;
  let k_caller =
    R.register_frame_regs rt ~name:"caller" ~slots:(Workloads.Dsl.slots "p")
      ~regs:caller_regs
  in
  let callee_regs = Rstack.Trace_table.plain_regs () in
  callee_regs.(7) <- T.Reg_callee_save;
  let k_callee =
    R.register_frame_regs rt ~name:"callee"
      ~slots:[| T.Callee_save 7; T.Ptr |] ~regs:callee_regs
  in
  R.call0 rt ~key:k_caller (fun () ->
    R.alloc_record1 rt ~site ~mask:0 ~dst:(R.to_reg 7) (R.imm 41);
    R.call0 rt ~key:k_callee (fun () ->
      (* spill the caller's register, then clobber it *)
      R.move rt (R.reg 7) (R.to_slot 0);
      R.move rt (R.imm 0) (R.to_reg 7);
      churn rt site 1 20000;
      (* the spill slot is a root because the *caller* said the register
         held a pointer; the object must have moved and been tracked *)
      check_int "spill slot root survived" 41
        (R.field_int rt ~obj:(R.slot 0) ~idx:0)) ()) ()

let compute_trace_through_gc () =
  with_rt @@ fun rt ->
  let site = R.register_site rt ~name:"s" in
  let key =
    R.register_frame rt ~name:"poly"
      ~slots:[| T.Non_ptr; T.Compute (T.Type_in_slot 0); T.Ptr |]
  in
  R.call0 rt ~key (fun () ->
    R.move rt (R.imm T.type_code_boxed) (R.to_slot 0);
    R.alloc_record1 rt ~site ~mask:0 ~dst:(R.to_slot 1) (R.imm 7);
    churn rt site 2 20000;
    check_int "compute-traced slot survived" 7
      (R.field_int rt ~obj:(R.slot 1) ~idx:0)) ()

let globals_are_roots () =
  with_rt @@ fun rt ->
  let site = R.register_site rt ~name:"s" in
  let key = R.register_frame rt ~name:"f" ~slots:(Workloads.Dsl.slots "p") in
  R.call0 rt ~key (fun () ->
    R.alloc_record1 rt ~site ~mask:0 ~dst:(R.to_global 5) (R.imm 13);
    churn rt site 0 20000;
    check_int "global root survived" 13
      (R.field_int rt ~obj:(R.global 5) ~idx:0)) ()

(* both global write paths check the index before anything else: a bad
   one raises, and the runtime's later minors and heap check are
   unaffected *)
let bad_global_index_raises () =
  with_rt @@ fun rt ->
  let site = R.register_site rt ~name:"s" in
  let key = R.register_frame rt ~name:"f" ~slots:(Workloads.Dsl.slots "p") in
  let slots = (R.config rt).Gsc.Config.global_slots in
  R.call0 rt ~key (fun () ->
    R.alloc_record1 rt ~site ~mask:0 ~dst:(R.to_slot 0) (R.imm 7);
    List.iter
      (fun g ->
        (match R.move rt (R.slot 0) (R.to_global g) with
         | () -> Alcotest.failf "move to_global %d must raise" g
         | exception Invalid_argument _ -> ());
        match R.write rt (R.to_global g) (R.read rt (R.slot 0)) with
        | () -> Alcotest.failf "write to_global %d must raise" g
        | exception Invalid_argument _ -> ())
      [ slots; -1 ];
    churn rt site 0 20000;
    ignore (R.check_heap rt : int)) ()

(* the root check [verify_heap] runs after every minor counts a global
   holding a young object, so a global a minor failed to visit would be
   caught *)
let young_global_counted () =
  with_rt @@ fun rt ->
  let site = R.register_site rt ~name:"s" in
  check_int "no young roots" 0 (R.young_roots rt);
  R.alloc_record1 rt ~site ~mask:0 ~dst:(R.to_global 3) (R.imm 1);
  check_int "the young global is counted" 1 (R.young_roots rt);
  R.collect_now rt;
  check_int "promoted" 0 (R.young_roots rt);
  with_rt ~cfg:(Gsc.Config.semispace ~budget_bytes:budget) @@ fun rt ->
  let site = R.register_site rt ~name:"s" in
  R.alloc_record1 rt ~site ~mask:0 ~dst:(R.to_global 3) (R.imm 1);
  check_int "no nursery under semispace" 0 (R.young_roots rt)

(* The scan-elision probe: site [a] is pretenured under a policy that
   elides the region scan, yet its record holds the only pointer to a
   young record of site [b].  The minor that the nursery churn triggers
   skips [a]'s region, so [b] survives only because the record's
   initialising store fell back to the write barrier; without that
   fallback [a]'s field was left pointing into the emptied nursery
   (reading it returned a stale word, not the stored 42).  [~bypass]
   stores the field behind the runtime's back instead, which the heap
   verifier must catch.  [~adaptive] leaves [a] out of the static policy
   and promotes it through [Hooks.set_pretenure], the adaptive
   controller's path.  Returns the value read back and the fallbacks
   counted. *)
let elision_probe ?(bypass = false) ?(adaptive = false) ~verify ~scan_elision
    () =
  let cfg =
    { (Gsc.Config.with_pretenuring ~budget_bytes:budget
         (Gsc.Pretenure.of_sites
            ~sites:(if adaptive then [] else [ 0 ])
            ~scan_elision)) with
      Gsc.Config.verify_heap = verify }
  in
  with_rt ~cfg @@ fun rt ->
  let a = R.register_site rt ~name:"a" in
  check_int "site a is the policy's site 0" 0 a;
  if adaptive then begin
    match R.Internal.collector rt with
    | Collectors.Collector.Generational g ->
      (Collectors.Generational.hooks g).Collectors.Hooks.set_pretenure
        ~site:a ~enabled:true
    | Collectors.Collector.Semispace _ -> Alcotest.fail "not generational"
  end;
  let b = R.register_site rt ~name:"b" in
  let c = R.register_site rt ~name:"churn" in
  let key = R.register_frame rt ~name:"f" ~slots:(Workloads.Dsl.slots "ppp") in
  R.call0 rt ~key (fun () ->
    R.alloc_record1 rt ~site:b ~mask:0 ~dst:(R.to_slot 1) (R.imm 42);
    if bypass then begin
      R.alloc_record1 rt ~site:a ~mask:0b1 ~dst:(R.to_slot 0) R.nil;
      Mem.Memory.set (R.Internal.memory rt)
        (Mem.Header.field_addr (V.to_addr (R.read rt (R.slot 0))) 0)
        (R.read rt (R.slot 1))
    end
    else R.alloc_record1 rt ~site:a ~mask:0b1 ~dst:(R.to_slot 0) (R.slot 1);
    R.write rt (R.to_slot 1) V.null;
    churn rt c 2 20000;
    R.collect_now rt;
    R.load_field rt ~obj:(R.slot 0) ~idx:0 ~dst:(R.to_slot 1);
    ( R.field_int rt ~obj:(R.slot 1) ~idx:0,
      (R.stats rt).Collectors.Gc_stats.region_scan_fallbacks ))
    ()

let young_field_caught () =
  List.iter
    (fun verify ->
      let what = if verify then "verified" else "unverified" in
      let v, fallbacks = elision_probe ~verify ~scan_elision:true () in
      check_int (what ^ ": elided site keeps its young referent") 42 v;
      check_int (what ^ ": one fallback") 1 fallbacks)
    [ true; false ];
  let v, fallbacks =
    elision_probe ~adaptive:true ~verify:true ~scan_elision:true ()
  in
  check_int "adaptively promoted site keeps its young referent" 42 v;
  check_int "adaptively promoted site: one fallback" 1 fallbacks;
  Alcotest.check_raises "a young pointer stored past the barrier"
    (Failure "check_heap: a heap field points into the nursery after a minor")
    (fun () ->
      ignore (elision_probe ~bypass:true ~verify:true ~scan_elision:true ()))

let young_field_control () =
  let v, fallbacks = elision_probe ~verify:true ~scan_elision:false () in
  check_int "scanned site keeps its young referent" 42 v;
  check_int "no fallback at a scanned site" 0 fallbacks

(* --- exceptions --- *)

let nested_exceptions () =
  with_rt @@ fun rt ->
  let key = R.register_frame rt ~name:"f" ~slots:(Workloads.Dsl.slots "p") in
  let site = R.register_site rt ~name:"s" in
  let result =
    R.call0 rt ~key (fun () ->
      R.try_with rt
        (fun () ->
          R.try_with rt
            (fun () ->
              R.call0 rt ~key (fun () ->
                (* the exception value is itself a heap object and must
                   survive the unwind and later collections *)
                R.alloc_record1 rt ~site ~mask:0 ~dst:(R.to_slot 0) (R.imm 21);
                R.raise_exn rt (R.slot 0)) ())
            ~handler:(fun () ->
              (* inner handler re-raises the heap value *)
              R.write rt (R.to_global 63) (R.exn_value rt);
              R.raise_exn rt (R.global 63)))
        ~handler:(fun () ->
          churn rt site 0 20000;
          R.write rt (R.to_global 62) (R.exn_value rt);
          R.field_int rt ~obj:(R.global 62) ~idx:0)) ()
  in
  check_int "payload through two handlers and a gc" 21 result;
  check_int "stack balanced" 0 (R.depth rt)

let unhandled_raise_fails () =
  with_rt @@ fun rt ->
  let key = R.register_frame rt ~name:"f" ~slots:(Workloads.Dsl.slots "p") in
  R.call0 rt ~key (fun () ->
    match R.raise_exn rt (R.imm 1) with
    | _ -> Alcotest.fail "expected failure"
    | exception Failure _ -> ()) ()

(* --- a rejected allocation leaves no trace ---

   A header the layout cannot store must be refused before any space is
   bumped or granted: a hole left in the nursery would be walked by the
   profiler's death sweep as phantom objects, and a leaked free-list
   grant would break the mark-sweep major's accounting. *)

let too_wide = Array.init 41 R.imm

let reject_too_wide rt ~site =
  match R.Internal.alloc_record rt ~site ~mask:0 ~dst:(R.to_slot 0) too_wide with
  | () -> Alcotest.fail "a 41-field record must be rejected"
  | exception Invalid_argument msg ->
    Alcotest.(check string) "message" "Header: record too large" msg

let rejected_header_leaves_no_hole () =
  List.iter
    (fun layout ->
      let cfg =
        { (Gsc.Config.generational ~budget_bytes:budget) with
          Gsc.Config.profiling = true;
          header_layout = layout }
      in
      let sites =
        with_rt ~cfg @@ fun rt ->
        let site = R.register_site rt ~name:"s" in
        let key =
          R.register_frame rt ~name:"f" ~slots:(Workloads.Dsl.slots "p")
        in
        R.call0 rt ~key (fun () ->
          for i = 1 to 300 do
            R.alloc_record4 rt ~site ~mask:0 ~dst:(R.to_slot 0)
              (R.imm i) (R.imm i) (R.imm i) (R.imm i)
          done;
          R.collect_now rt;
          R.alloc_record1 rt ~site ~mask:0 ~dst:(R.to_slot 0) (R.imm 1);
          let st = R.stats rt in
          let words = st.Collectors.Gc_stats.words_allocated
          and objects = st.Collectors.Gc_stats.objects_allocated in
          reject_too_wide rt ~site;
          check_int "words allocated unchanged" words
            st.Collectors.Gc_stats.words_allocated;
          check_int "objects allocated unchanged" objects
            st.Collectors.Gc_stats.objects_allocated;
          R.collect_now rt;
          ignore (R.check_heap rt : int)) ();
        match R.profile rt with
        | None -> Alcotest.fail "profiling run without a profile"
        | Some p ->
          List.map (fun s -> s.Heap_profile.Profile_data.site) p.sites
      in
      Alcotest.(check (list int))
        (Printf.sprintf "only the real site (%s)"
           (match layout with
            | Mem.Header.Classic -> "classic"
            | Mem.Header.Packed -> "packed"))
        [ 0 ] sites)
    [ Mem.Header.Classic; Mem.Header.Packed ]

let rejected_pretenured_header_leaks_no_grant () =
  let cfg =
    { (Gsc.Config.with_pretenuring ~budget_bytes:budget
         (Gsc.Pretenure.of_sites ~sites:[ 0 ] ~scan_elision:false))
      with
      Gsc.Config.major_kind = Collectors.Generational.Mark_sweep;
      tenured_backend = Alloc.Backend.Free_list }
  in
  with_rt ~cfg @@ fun rt ->
  let site = R.register_site rt ~name:"s" in
  let key = R.register_frame rt ~name:"f" ~slots:(Workloads.Dsl.slots "p") in
  R.call0 rt ~key (fun () ->
    for i = 1 to 50 do
      R.alloc_record2 rt ~site ~mask:0b10 ~dst:(R.to_slot 0)
        (R.imm i) (R.slot 0)
    done;
    let pretenured = (R.stats rt).Collectors.Gc_stats.words_pretenured in
    reject_too_wide rt ~site;
    check_int "pretenured words unchanged" pretenured
      (R.stats rt).Collectors.Gc_stats.words_pretenured;
    (* the major cross-checks granted minus freed against marked words *)
    R.collect_now rt;
    ignore (R.check_heap rt : int);
    check_int "chain intact" 50 (R.field_int rt ~obj:(R.slot 0) ~idx:0)) ()

(* --- the torture property --- *)

(* A tiny program language interpreted both against the runtime and
   against a native model.  All heap values are (int, next) pairs; the
   observable result is a rolling checksum of the ints loaded. *)

type op =
  | Alloc of int * int        (* dst slot, int payload; next = slot dst *)
  | AllocArr of int * bool    (* dst slot, big? (big = large-object space) *)
  | Load of int * int         (* cell: slot := next; array: slot := elem i *)
  | Read of int               (* cell: += payload; array: += length *)
  | Store of int * int * int  (* cell: next := b; array: elem i := b *)
  | StoreInt of int * int     (* cell only: payload := v *)
  | CallDeep of int           (* recurse, allocating at every level *)
  | RaiseInto of int          (* try { raise v } handled locally *)
  | DeepRaise of int * int
      (* try { recurse n frames, allocating at every level; raise a heap
         value v from the bottom } handled outside the recursion *)
  | GStore of int * int       (* global g := slot s *)
  | GLoad of int * int        (* slot d := global g *)

let num_slots = 4
(* the programs' globals are [global_base ..]: DeepRaise's handler uses
   globals 0 and 1 *)
let num_globals = 3
let global_base = 2
let small_arr = 6
let big_arr = 600 (* above the large-object threshold *)

let op_gen =
  QCheck.Gen.(
    frequency
      [ (6, map2 (fun d v -> Alloc (d, v)) (int_bound (num_slots - 1)) (int_bound 1000));
        (2, map2 (fun d big -> AllocArr (d, big)) (int_bound (num_slots - 1)) bool);
        (3, map2 (fun s i -> Load (s, i)) (int_bound (num_slots - 1)) (int_bound 1000));
        (4, map (fun s -> Read s) (int_bound (num_slots - 1)));
        (3, map3 (fun a i b -> Store (a, i, b)) (int_bound (num_slots - 1))
           (int_bound 1000) (int_bound (num_slots - 1)));
        (2, map2 (fun s v -> StoreInt (s, v)) (int_bound (num_slots - 1)) (int_bound 1000));
        (1, map (fun d -> CallDeep (1 + (d mod 30))) (int_bound 100));
        (1, map (fun v -> RaiseInto v) (int_bound 1000));
        (1, map2 (fun d v -> DeepRaise (1 + (d mod 30), v)) (int_bound 100)
             (int_bound 1000));
        (2, map2 (fun g s -> GStore (g, s)) (int_bound (num_globals - 1))
             (int_bound (num_slots - 1)));
        (2, map2 (fun g d -> GLoad (g, d)) (int_bound (num_globals - 1))
             (int_bound (num_slots - 1))) ])

let show_op = function
  | Alloc (d, v) -> Printf.sprintf "Alloc(%d,%d)" d v
  | AllocArr (d, big) -> Printf.sprintf "AllocArr(%d,%b)" d big
  | Load (s, i) -> Printf.sprintf "Load(%d,%d)" s i
  | Read s -> Printf.sprintf "Read %d" s
  | Store (a, i, b) -> Printf.sprintf "Store(%d,%d,%d)" a i b
  | StoreInt (s, v) -> Printf.sprintf "StoreInt(%d,%d)" s v
  | CallDeep n -> Printf.sprintf "CallDeep %d" n
  | RaiseInto v -> Printf.sprintf "RaiseInto %d" v
  | DeepRaise (n, v) -> Printf.sprintf "DeepRaise(%d,%d)" n v
  | GStore (g, s) -> Printf.sprintf "GStore(%d,%d)" g s
  | GLoad (g, d) -> Printf.sprintf "GLoad(%d,%d)" g d

let arb_program =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 10 120) op_gen)

(* native model *)
module Model = struct
  type value =
    | Nil
    | Cell of cell
    | Arr of value array
  and cell = { mutable v : int; mutable next : value }

  let run ops =
    let slots = Array.make num_slots Nil in
    let globals = Array.make num_globals Nil in
    let sum = ref 0 in
    let add x = sum := (!sum + x) land 0x3FFFFFFF in
    let interp ops =
      List.iter
        (fun op ->
          match op with
          | Alloc (d, v) -> slots.(d) <- Cell { v; next = slots.(d) }
          | AllocArr (d, big) ->
            slots.(d) <- Arr (Array.make (if big then big_arr else small_arr) Nil)
          | Load (s, i) ->
            (match slots.(s) with
             | Cell c -> slots.(s) <- c.next
             | Arr a -> slots.(s) <- a.(i mod Array.length a)
             | Nil -> ())
          | Read s ->
            (match slots.(s) with
             | Cell c -> add c.v
             | Arr a -> add (Array.length a)
             | Nil -> add 1)
          | Store (a, i, b) ->
            (match slots.(a) with
             | Cell c -> c.next <- slots.(b)
             | Arr arr -> arr.(i mod Array.length arr) <- slots.(b)
             | Nil -> ())
          | StoreInt (s, v) ->
            (match slots.(s) with
             | Cell c -> c.v <- v
             | Arr _ | Nil -> ())
          | CallDeep n ->
            let rec deep n = if n > 0 then begin add n; deep (n - 1) end in
            deep n
          | RaiseInto v -> add (v + 3)
          | DeepRaise (n, v) ->
            for k = 1 to n do
              add k
            done;
            add (v + 5)
          | GStore (g, s) -> globals.(g) <- slots.(s)
          | GLoad (g, d) -> slots.(d) <- globals.(g))
        ops
    in
    interp ops;
    !sum
end

(* runtime interpretation; every Alloc can trigger a collection.
   [inspect] sees the runtime after the program. *)
let run_sim ?(inspect = ignore) cfg ops =
  with_rt ~cfg @@ fun rt ->
  let site = R.register_site rt ~name:"torture" in
  let site_arr = R.register_site rt ~name:"torture_arr" in
  let key =
    R.register_frame rt ~name:"torture" ~slots:(Array.make num_slots T.Ptr)
  in
  let k_deep = R.register_frame rt ~name:"deep" ~slots:(Workloads.Dsl.slots "pp") in
  let sum = ref 0 in
  let add x = sum := (!sum + x) land 0x3FFFFFFF in
  (* both interpreters derive "what is in this slot" from their own heap,
     so their control flow stays identical *)
  let is_arr s =
    (not (R.is_nil rt (R.slot s))) && R.obj_site rt ~obj:(R.slot s) = site_arr
  in
  for g = 0 to num_globals - 1 do
    R.write rt (R.to_global (global_base + g)) V.null
  done;
  R.call0 rt ~key (fun () ->
    List.iter
      (fun op ->
        match op with
        | Alloc (d, v) ->
          R.alloc_record2 rt ~site ~mask:0b10 ~dst:(R.to_slot d)
            (R.imm v) (R.slot d)
        | AllocArr (d, big) ->
          R.alloc_ptr_array rt ~site:site_arr ~dst:(R.to_slot d)
            ~len:(if big then big_arr else small_arr)
        | Load (s, i) ->
          if not (R.is_nil rt (R.slot s)) then begin
            let idx =
              if is_arr s then i mod R.obj_length rt ~obj:(R.slot s) else 1
            in
            R.load_field rt ~obj:(R.slot s) ~idx ~dst:(R.to_slot s)
          end
        | Read s ->
          if R.is_nil rt (R.slot s) then add 1
          else if is_arr s then add (R.obj_length rt ~obj:(R.slot s))
          else add (R.field_int rt ~obj:(R.slot s) ~idx:0)
        | Store (a, i, b) ->
          if not (R.is_nil rt (R.slot a)) then begin
            let idx =
              if is_arr a then i mod R.obj_length rt ~obj:(R.slot a) else 1
            in
            R.store_field rt ~obj:(R.slot a) ~idx ~ptr:true (R.slot b)
          end
        | StoreInt (s, v) ->
          if (not (R.is_nil rt (R.slot s))) && not (is_arr s) then
            R.store_field rt ~obj:(R.slot s) ~idx:0 ~ptr:false (R.imm v)
        | CallDeep n ->
          (* a non-tail recursion that allocates at every level *)
          let rec deep n =
            R.call0 rt ~key:k_deep (fun () ->
              if n > 0 then begin
                add n;
                R.alloc_record2 rt ~site ~mask:0b10 ~dst:(R.to_slot 0)
                  (R.imm n) (R.slot 0);
                deep (n - 1)
              end) ()
          in
          deep n
        | RaiseInto v ->
          add
            (R.try_with rt
               (fun () -> R.raise_exn rt (R.imm v))
               ~handler:(fun () -> V.to_int (R.exn_value rt) + 3))
        | DeepRaise (n, v) ->
          (* the unwind skips every frame of the recursion, past the
             markers its collections placed; the handler then allocates,
             so the exception value must survive as a root *)
          let rec deep k =
            R.call0 rt ~key:k_deep (fun () ->
              add k;
              R.alloc_record2 rt ~site ~mask:0b10 ~dst:(R.to_slot 0)
                (R.imm k) (R.slot 0);
              if k < n then deep (k + 1)
              else begin
                R.alloc_record2 rt ~site ~mask:0b10 ~dst:(R.to_slot 1)
                  (R.imm v) R.nil;
                R.raise_exn rt (R.slot 1)
              end) ()
          in
          add
            (R.try_with rt
               (fun () -> deep 1)
               ~handler:(fun () ->
                 R.write rt (R.to_global 0) (R.exn_value rt);
                 R.alloc_record2 rt ~site ~mask:0b10 ~dst:(R.to_global 1)
                   (R.imm 0) (R.global 0);
                 let x = R.field_int rt ~obj:(R.global 0) ~idx:0 in
                 R.write rt (R.to_global 0) V.zero;
                 R.write rt (R.to_global 1) V.zero;
                 x + 5))
        | GStore (g, s) ->
          R.write rt (R.to_global (global_base + g)) (R.read rt (R.slot s))
        | GLoad (g, d) ->
          R.write rt (R.to_slot d) (R.read rt (R.global (global_base + g))))
      ops;
    ignore (R.check_heap rt : int)) ();
  inspect rt;
  !sum

let torture_configs =
  (* worst-case live data: every slot holding a large array *)
  let tight = 96 * 1024 in
  let pol = Gsc.Pretenure.of_sites ~sites:[ 0 ] ~scan_elision:false in
  [ { (Gsc.Config.semispace ~budget_bytes:tight) with Gsc.Config.verify_heap = true };
    { (Gsc.Config.generational ~budget_bytes:tight) with
      Gsc.Config.nursery_bytes_max = 2 * 1024;
      verify_heap = true };
    { (Gsc.Config.with_markers ~budget_bytes:tight) with
      Gsc.Config.nursery_bytes_max = 2 * 1024;
      marker_spacing = 4;
      verify_heap = true };
    { (Gsc.Config.with_pretenuring ~budget_bytes:tight pol) with
      Gsc.Config.nursery_bytes_max = 2 * 1024;
      marker_spacing = 4;
      verify_heap = true };
    (* scan elision: the minor skips site 0's pretenured records, so
       under immediate promotion [verify_heap]'s after-minor check finds
       any young pointer the initialising-store fallback missed *)
    { (Gsc.Config.with_pretenuring ~budget_bytes:tight
         (Gsc.Pretenure.of_sites ~sites:[ 0 ] ~scan_elision:true)) with
      Gsc.Config.nursery_bytes_max = 2 * 1024;
      marker_spacing = 4;
      verify_heap = true };
    { (Gsc.Config.generational ~budget_bytes:tight) with
      Gsc.Config.nursery_bytes_max = 2 * 1024;
      barrier = Collectors.Generational.Barrier_remset;
      verify_heap = true };
    { (Gsc.Config.with_markers ~budget_bytes:tight) with
      Gsc.Config.nursery_bytes_max = 2 * 1024;
      marker_spacing = 4;
      exception_strategy = Gsc.Config.Deferred_handler_walk;
      verify_heap = true };
    { (Gsc.Config.generational ~budget_bytes:tight) with
      Gsc.Config.nursery_bytes_max = 2 * 1024;
      tenure_threshold = 3;
      verify_heap = true };
    { (Gsc.Config.with_markers ~budget_bytes:tight) with
      Gsc.Config.nursery_bytes_max = 2 * 1024;
      marker_spacing = 4;
      tenure_threshold = 2;
      verify_heap = true };
    { (Gsc.Config.generational ~budget_bytes:tight) with
      Gsc.Config.nursery_bytes_max = 2 * 1024;
      barrier = Collectors.Generational.Barrier_cards;
      verify_heap = true };
    { (Gsc.Config.generational ~budget_bytes:tight) with
      Gsc.Config.nursery_bytes_max = 2 * 1024;
      barrier = Collectors.Generational.Barrier_cards;
      tenure_threshold = 2;
      verify_heap = true };
    (* Full scans under the in-place major read the cached stack
       prefix's cells where they are *)
    { (Gsc.Config.with_markers ~budget_bytes:tight) with
      Gsc.Config.nursery_bytes_max = 2 * 1024;
      major_kind = Collectors.Generational.Mark_sweep;
      tenured_backend = Alloc.Backend.Free_list;
      marker_spacing = 4;
      verify_heap = true } ]

let torture_prop =
  QCheck.Test.make ~name:"random programs agree under every collector"
    ~count:120 arb_program (fun ops ->
      let expected = Model.run ops in
      List.for_all (fun cfg -> run_sim cfg ops = expected) torture_configs)

(* One generated program, pinned by its generator seed, whose DeepRaise
   recurses deeper than the marker spacing of the marker configs (4):
   collections inside the recursion place markers in its frames, and
   the raise unwinds past them to the handler outside.  Every config
   must agree with the model, and the marker configs must really have
   placed markers and unwound. *)
let deep_raise_seed = 590

let deep_raise_pinned () =
  let ops =
    QCheck.Gen.generate1
      ~rand:(Random.State.make [| deep_raise_seed |])
      arb_program.QCheck.gen
  in
  let deepest =
    List.fold_left
      (fun m op -> match op with DeepRaise (n, _) -> max m n | _ -> m)
      0 ops
  in
  Alcotest.(check bool) "a DeepRaise deeper than the marker spacing" true
    (deepest > 4);
  let expected = Model.run ops in
  List.iter
    (fun cfg ->
      let inspect rt =
        let st = R.stats rt in
        if cfg.Gsc.Config.stack_markers then begin
          Alcotest.(check bool) "markers placed" true
            (st.Collectors.Gc_stats.marker_stubs_installed > 0);
          Alcotest.(check bool) "unwound" true
            (st.Collectors.Gc_stats.exception_unwinds > 0)
        end
      in
      check_int (Gsc.Config.name cfg) expected (run_sim ~inspect cfg ops))
    torture_configs

(* A young cell reachable only from a global, which is then left
   unwritten across more than 100 minors (every one of them skips it
   under immediate promotion) and read back at the end. *)
let global_survives_minors () =
  let ops =
    [ Alloc (0, 42); GStore (0, 0); AllocArr (0, false) ]
    @ List.init 5000 (fun _ -> AllocArr (1, false))
    @ [ GLoad (0, 2); Read 2 ]
  in
  let expected = Model.run ops in
  List.iter
    (fun cfg ->
      let inspect rt =
        if cfg.Gsc.Config.collector = Gsc.Config.Generational then
          Alcotest.(check bool) "more than 100 minors" true
            ((R.stats rt).Collectors.Gc_stats.minor_gcs > 100)
      in
      check_int (Gsc.Config.name cfg) expected (run_sim ~inspect cfg ops))
    torture_configs

(* --- stack hygiene --- *)

(* a frame pushed where a returned frame, or one removed by [raise_exn],
   lay reads null in its pointer slots and zero in the others *)
let fresh_frame_after_pop_and_raise () =
  with_rt @@ fun rt ->
  let site = R.register_site rt ~name:"s" in
  let dirty =
    R.register_frame rt ~name:"dirty" ~slots:(Workloads.Dsl.slots "ipip")
  in
  let key = R.register_frame rt ~name:"f" ~slots:(Workloads.Dsl.slots "pipi") in
  let fill () =
    R.write rt (R.to_slot 0) (V.Int 10);
    R.alloc_record1 rt ~site ~mask:0 ~dst:(R.to_slot 1) (R.imm 1);
    R.write rt (R.to_slot 2) (V.Int 12);
    R.alloc_record1 rt ~site ~mask:0 ~dst:(R.to_slot 3) (R.imm 3)
  in
  let fresh what =
    R.call0 rt ~key (fun () ->
      List.iteri
        (fun i v ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: slot %d" what i)
            true
            (V.equal v (R.read rt (R.slot i))))
        [ V.null; V.zero; V.null; V.zero ]) ()
  in
  R.call0 rt ~key (fun () ->
    R.call0 rt ~key:dirty fill ();
    fresh "after a return";
    R.try_with rt
      (fun () ->
        R.call0 rt ~key:dirty (fun () ->
          fill ();
          R.call0 rt ~key:dirty (fun () ->
            fill ();
            R.raise_exn rt (R.imm 0)) ()) ())
      ~handler:(fun () -> ());
    fresh "after a raise";
    R.call0 rt ~key (fun () -> fresh "after a raise, one deeper") ()) ()

(* a stack that outgrows its words array between two collections: every
   frame keeps its integer slot and its record, which both collections
   forwarded through the frame's slot *)
let stack_growth_between_collections () =
  List.iter
    (fun cfg ->
      with_rt ~cfg @@ fun rt ->
      let site = R.register_site rt ~name:"s" in
      let key =
        R.register_frame rt ~name:"f" ~slots:(Workloads.Dsl.slots "ipp")
      in
      let depth = 300 in
      let rec descend n =
        R.alloc_record1 rt ~site ~mask:0 ~dst:(R.to_slot 1) (R.slot 0);
        if n = 10 || n = depth then R.collect_now rt;
        if n < depth then R.call1 rt ~key (R.imm (n + 1)) descend (n + 1);
        churn rt site 2 8;
        check_int (Gsc.Config.name cfg ^ ": slot") n
          (V.to_int (R.read rt (R.slot 0)));
        check_int (Gsc.Config.name cfg ^ ": record") n
          (R.field_int rt ~obj:(R.slot 1) ~idx:0)
      in
      R.call1 rt ~key (R.imm 1) descend 1;
      ignore (R.check_heap rt : int))
    torture_configs

(* a host exception inside [call] pops exactly the frames of the calls it
   leaves, and no frame of a call it does not *)
let host_exception_pops_own_frame () =
  with_rt ~cfg:{ (Gsc.Config.with_markers ~budget_bytes:budget) with
                 Gsc.Config.marker_spacing = 1 }
  @@ fun rt ->
  let key = R.register_frame rt ~name:"f" ~slots:(Workloads.Dsl.slots "i") in
  R.call1 rt ~key (R.imm 1) (fun () ->
    (match
       R.call1 rt ~key (R.imm 2) (fun () ->
         R.call1 rt ~key (R.imm 3) (fun () ->
           R.collect_now rt;
           raise Exit) ()) ()
     with
     | () -> Alcotest.fail "Exit must propagate"
     | exception Exit -> ());
    check_int "the two raising calls popped" 1 (R.depth rt);
    check_int "the caller's slot intact" 1 (V.to_int (R.read rt (R.slot 0)));
    check_int "both marked frames fired their stubs" 2
      (R.marker_stub_hits rt)) ();
  check_int "stack balanced" 0 (R.depth rt)

(* --- call arity --- *)

let call_arity_checked_before_push () =
  with_rt @@ fun rt ->
  let key = R.register_frame rt ~name:"f" ~slots:(Workloads.Dsl.slots "pi") in
  let callee = R.register_frame rt ~name:"g" ~slots:(Workloads.Dsl.slots "i") in
  R.call0 rt ~key (fun () ->
    (match
       R.call2 rt ~key:callee (R.imm 1) (R.imm 2) ignore ()
     with
     | () -> Alcotest.fail "two args into a one-slot frame must fail"
     | exception Invalid_argument msg ->
       Alcotest.(check string) "message"
         "Runtime.call: more arguments than frame slots" msg);
    check_int "no frame left behind" 1 (R.depth rt);
    check_int "full arity still accepted" 7
      (R.call1 rt ~key:callee (R.imm 7) (fun () ->
         V.to_int (R.read rt (R.slot 0))) ())) ();
  check_int "stack balanced" 0 (R.depth rt)

(* --- the block-handle façade against its safe-tier twin ---

   One generated program runs on two runtimes of the same configuration:
   one through [Runtime]'s block-handle operations, one through the
   safe-tier twin in runtime_ref.ml.  Bad operations (null and integer
   dereferences, bounds, pointer/integer mismatches, reads through an
   address a collection has just moved or freed) are generated on
   purpose.  Every result and exception message, the words of the
   objects the slots hold after each op, every live memory block word
   for word at the end, the frame slots, the work counters and (when
   profiling) the heap profile must be identical.

   The frame has four pointer slots and one untraced integer slot (4).
   Slot 4 holds an integer except inside [F_stale], which parks a pointer
   there, collects, reads through the now-stale address and clears it:
   a stale pointer never outlives the op, so no allocation reuses its
   memory while it is live, and the read-only ops never write through
   it. *)

type operand = O_slot of int | O_nil | O_imm of int

type fop =
  | F_record of int * (bool * operand) list  (* dst slot; (pointer?, source) *)
  | F_array of int * bool * int  (* dst slot, pointer elements?, length *)
  | F_load of operand * int * int  (* object, index, dst slot *)
  | F_store of operand * int * bool * operand  (* object, index, pointer?, source *)
  | F_field_int of operand * int
  | F_length of operand
  | F_site of operand
  | F_stale of int * int  (* slot, index *)

let show_operand = function
  | O_slot s -> Printf.sprintf "s%d" s
  | O_nil -> "nil"
  | O_imm n -> Printf.sprintf "#%d" n

let show_fop = function
  | F_record (d, fs) ->
    Printf.sprintf "record s%d [%s]" d
      (String.concat ","
         (List.map
            (fun (p, o) -> (if p then "P " else "I ") ^ show_operand o)
            fs))
  | F_array (d, p, n) -> Printf.sprintf "array s%d %b %d" d p n
  | F_load (o, i, d) -> Printf.sprintf "load %s.%d -> s%d" (show_operand o) i d
  | F_store (o, i, p, v) ->
    Printf.sprintf "store %s.%d %s %s" (show_operand o) i
      (if p then "P" else "I") (show_operand v)
  | F_field_int (o, i) -> Printf.sprintf "field_int %s.%d" (show_operand o) i
  | F_length o -> "length " ^ show_operand o
  | F_site o -> "site " ^ show_operand o
  | F_stale (d, i) -> Printf.sprintf "stale s%d.%d" d i

let fop_gen =
  let open QCheck.Gen in
  let ptr_slot = int_bound 3 in
  (* an object operand: mostly a pointer slot, sometimes a bad one *)
  let obj =
    frequency
      [ (8, map (fun s -> O_slot s) ptr_slot); (1, return (O_slot 4));
        (1, return O_nil); (1, map (fun n -> O_imm n) (int_bound 50)) ]
  in
  (* a stored value: pointer slots, nil or immediates; the integer slot
     only as an [I] source, so no stale pointer reaches the heap *)
  let value ~ptr =
    frequency
      [ ((if ptr then 6 else 2), map (fun s -> O_slot s) ptr_slot);
        (2, return O_nil);
        ((if ptr then 1 else 6), map (fun n -> O_imm n) (int_bound 1000));
        ((if ptr then 0 else 1), return (O_slot 4)) ]
  in
  let field =
    bool >>= fun ptr -> map (fun v -> (ptr, v)) (value ~ptr)
  in
  (* mostly the workloads' cell shape [{int; pointer}], so that stores
     and loads usually hit a field of the kind they expect *)
  let fields =
    frequency
      [ (3, map2 (fun n s -> [ (false, O_imm n); (true, s) ]) (int_bound 1000)
           (value ~ptr:true));
        (2, list_size (int_bound 5) field) ]
  in
  let idx = frequency [ (4, int_bound 1); (1, int_range (-1) 6) ] in
  frequency
    [ (6, map2 (fun d fs -> F_record (d, fs)) ptr_slot fields);
      (2, map3 (fun d p n -> F_array (d, p, n)) ptr_slot bool (int_bound 6));
      (4, map3 (fun o i d -> F_load (o, i, d)) obj idx ptr_slot);
      (4,
       obj >>= fun o ->
       idx >>= fun i ->
       bool >>= fun ptr -> map (fun v -> F_store (o, i, ptr, v)) (value ~ptr));
      (3, map2 (fun o i -> F_field_int (o, i)) obj idx);
      (1, map (fun o -> F_length o) obj);
      (1, map (fun o -> F_site o) obj);
      (1, map2 (fun d i -> F_stale (d, i)) ptr_slot (int_bound 3)) ]

let arb_fprogram =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_fop ops))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 10 80) fop_gen)

type facade = {
  alloc_record :
    R.t -> site:int -> mask:int -> dst:R.dst -> R.src array -> unit;
  load_field : R.t -> obj:R.src -> idx:int -> dst:R.dst -> unit;
  store_field : R.t -> obj:R.src -> idx:int -> ptr:bool -> R.src -> unit;
  field_int : R.t -> obj:R.src -> idx:int -> int;
  obj_length : R.t -> obj:R.src -> int;
  obj_site : R.t -> obj:R.src -> int;
}

let block_handles =
  { alloc_record = R.Internal.alloc_record; load_field = R.load_field;
    store_field = R.store_field; field_int = R.field_int;
    obj_length = R.obj_length; obj_site = R.obj_site }

let safe_tier =
  { alloc_record = Runtime_ref.alloc_record;
    load_field = Runtime_ref.load_field;
    store_field = Runtime_ref.store_field;
    field_int = Runtime_ref.field_int;
    obj_length = Runtime_ref.obj_length;
    obj_site = Runtime_ref.obj_site }

let src_of = function
  | O_slot s -> R.slot s
  | O_nil -> R.nil
  | O_imm n -> R.imm n

(* a field list as the record allocators take it: a pointer mask and
   the operands *)
let mask_of fs =
  List.fold_left (fun (i, m) (ptr, _) -> (i + 1, if ptr then m lor (1 lsl i) else m))
    (0, 0) fs
  |> snd

let srcs_of fs = Array.of_list (List.map (fun (_, o) -> src_of o) fs)

(* every live block of [mem], word for word; block ids are small and
   reused, so a fixed id range covers a test-sized heap *)
let heap_words mem =
  List.filter_map
    (fun id ->
      let a = Mem.Addr.make ~block:id ~offset:0 in
      if Mem.Memory.live_block mem a then
        Some (id, Array.copy (Mem.Memory.cells mem a))
      else None)
    (List.init 256 Fun.id)

let work_counters (s : Collectors.Gc_stats.t) =
  let open Collectors.Gc_stats in
  [ s.mutator_ops; s.pointer_updates; s.words_allocated; s.objects_allocated;
    s.words_pretenured; s.minor_gcs; s.major_gcs; s.words_copied;
    s.words_promoted; s.barrier_entries_processed; s.roots_visited;
    s.region_scan_fallbacks ]

let run_facade (f : facade) cfg ops =
  with_rt ~cfg @@ fun rt ->
  let site = R.register_site rt ~name:"rec" in
  let site_arr = R.register_site rt ~name:"arr" in
  let key = R.register_frame rt ~name:"twin" ~slots:(Workloads.Dsl.slots "ppppi") in
  let mem = R.Internal.memory rt in
  (* after each op: the result, then every word of the objects the
     pointer slots hold *)
  let outcome thunk =
    let r =
      match thunk () with
      | r -> r
      | exception Invalid_argument msg -> "invalid: " ^ msg
    in
    let objects =
      List.init 4 (fun i ->
        match R.read rt (R.slot i) with
        | V.Ptr a when not (Mem.Addr.is_null a) ->
          let off = Mem.Addr.offset a in
          Array.to_list
            (Array.sub (Mem.Memory.cells mem a) off
               (Mem.Header.object_words_at mem a))
        | V.Ptr _ | V.Int _ -> [])
    in
    String.concat " " (r :: List.map string_of_int (List.concat objects))
  in
  R.call0 rt ~key (fun () ->
    let results =
      List.concat_map
        (fun op ->
          match op with
          | F_record (d, fs) ->
            [ outcome (fun () ->
                f.alloc_record rt ~site ~mask:(mask_of fs) ~dst:(R.to_slot d)
                  (srcs_of fs);
                "ok") ]
          | F_array (d, ptr, len) ->
            (if ptr then R.alloc_ptr_array else R.alloc_nonptr_array)
              rt ~site:site_arr ~dst:(R.to_slot d) ~len;
            []
          | F_load (o, idx, d) ->
            [ outcome (fun () ->
                f.load_field rt ~obj:(src_of o) ~idx ~dst:(R.to_slot d);
                "ok") ]
          | F_store (o, idx, ptr, v) ->
            [ outcome (fun () ->
                f.store_field rt ~obj:(src_of o) ~idx ~ptr (src_of v);
                "ok") ]
          | F_field_int (o, idx) ->
            [ outcome (fun () ->
                string_of_int (f.field_int rt ~obj:(src_of o) ~idx)) ]
          | F_length o ->
            [ outcome (fun () -> string_of_int (f.obj_length rt ~obj:(src_of o))) ]
          | F_site o ->
            [ outcome (fun () -> string_of_int (f.obj_site rt ~obj:(src_of o))) ]
          | F_stale (d, idx) ->
            R.move rt (R.slot d) (R.to_slot 4);
            R.collect_now rt;
            let obj = R.slot 4 in
            let reads =
              [ outcome (fun () -> string_of_int (f.obj_length rt ~obj));
                outcome (fun () -> string_of_int (f.obj_site rt ~obj));
                outcome (fun () -> string_of_int (f.field_int rt ~obj ~idx)) ]
            in
            R.move rt (R.imm 0) (R.to_slot 4);
            reads)
        ops
    in
    ( results,
      heap_words mem,
      List.init 5 (fun i -> V.encode (R.read rt (R.slot i))),
      work_counters (R.stats rt),
      R.profile rt )) ()

let twin_configs =
  let budget = 128 * 1024 in
  let small c = { c with Gsc.Config.nursery_bytes_max = 2 * 1024 } in
  let gen = small (Gsc.Config.generational ~budget_bytes:budget) in
  [ gen;
    { gen with Gsc.Config.header_layout = Mem.Header.Packed };
    Gsc.Config.semispace ~budget_bytes:budget;
    { gen with Gsc.Config.profiling = true };
    { gen with Gsc.Config.barrier = Collectors.Generational.Barrier_cards };
    { gen with Gsc.Config.barrier = Collectors.Generational.Barrier_remset };
    small
      (Gsc.Config.with_pretenuring ~budget_bytes:budget
         (Gsc.Pretenure.of_sites ~sites:[ 0 ] ~scan_elision:false));
    (* scan elision: records pointing at young arrays fall back to the
       barrier in both tiers *)
    small
      (Gsc.Config.with_pretenuring ~budget_bytes:budget
         (Gsc.Pretenure.of_sites ~sites:[ 0 ] ~scan_elision:true));
    { (small
         (Gsc.Config.with_pretenuring ~budget_bytes:budget
            (Gsc.Pretenure.of_sites ~sites:[ 0 ] ~scan_elision:false)))
      with
      Gsc.Config.major_kind = Collectors.Generational.Mark_sweep } ]

(* --- a field store rejected partway through a record ---

   The record is granted and zeroed before its fields are stored, so an
   integer handed to a pointer field raises with the object already in
   the heap: field 0 stored, the rest still zero — although the grant
   reuses words that held pointers.  Nothing roots it, but
   a pretenured grant under the mark-sweep major is on the region-scan
   list, so the next minor scans its pointer fields; those must hold
   either a stored pointer or a zero.  Both tiers must raise the same
   message and leave the same heap, and [check_heap] and [verify_heap]
   must pass through the next minor and a full collection. *)

let rejected_field_store () =
  let verified cfg = { cfg with Gsc.Config.verify_heap = true } in
  let configs =
    [ ("nursery", verified (Gsc.Config.generational ~budget_bytes:budget));
      ( "pretenured mark-sweep",
        verified
          { (Gsc.Config.with_pretenuring ~budget_bytes:budget
               (Gsc.Pretenure.of_sites ~sites:[ 0 ] ~scan_elision:false))
            with
            Gsc.Config.major_kind = Collectors.Generational.Mark_sweep;
            tenured_backend = Alloc.Backend.Free_list } ) ]
  in
  let run (f : facade) cfg =
    with_rt ~cfg @@ fun rt ->
    let site = R.register_site rt ~name:"s" in
    let key = R.register_frame rt ~name:"f" ~slots:(Workloads.Dsl.slots "ppp") in
    let mem = R.Internal.memory rt in
    R.call0 rt ~key (fun () ->
      R.alloc_record1 rt ~site ~mask:0 ~dst:(R.to_slot 0) (R.imm 7);
      (* garbage full of pointers, then a full collection: the next
         grant reuses its words (the reset nursery, or a swept hole) *)
      for _ = 1 to 300 do
        R.alloc_record4 rt ~site ~mask:0b1111 ~dst:(R.to_slot 2)
          (R.slot 0) (R.slot 0) (R.slot 0) (R.slot 0)
      done;
      R.collect_now rt;
      let msg =
        match
          f.alloc_record rt ~site ~mask:0b0111 ~dst:(R.to_slot 1)
            [| R.slot 0; R.imm 5; R.slot 0; R.imm 9 |]
        with
        | () -> Alcotest.fail "an integer in a pointer field must be refused"
        | exception Invalid_argument msg -> msg
      in
      (* the abandoned record lies just below the next grant: the
         nursery bumps, and first fit splits the lowest hole from its
         start *)
      R.alloc_record1 rt ~site ~mask:0 ~dst:(R.to_slot 2) (R.imm 1);
      let probe = V.to_addr (R.read rt (R.slot 2)) in
      let obj = Mem.Addr.add probe (-(Mem.Header.header_words () + 4)) in
      let payload =
        List.init 4 (fun i -> Mem.Memory.get mem (Mem.Header.field_addr obj i))
      in
      let stats = R.stats rt in
      let minors = stats.Collectors.Gc_stats.minor_gcs in
      while stats.Collectors.Gc_stats.minor_gcs = minors do
        R.alloc_record1 rt ~site ~mask:0 ~dst:(R.to_slot 2) (R.imm 2)
      done;
      ignore (R.check_heap rt : int);
      let after_minor = heap_words mem in
      R.collect_now rt;
      ignore (R.check_heap rt : int);
      check_int "slot 0 intact" 7 (R.field_int rt ~obj:(R.slot 0) ~idx:0);
      (msg, payload, after_minor)) ()
  in
  List.iter
    (fun (name, cfg) ->
      let ((msg, payload, _) as fast) = run block_handles cfg in
      Alcotest.(check string)
        (name ^ ": message") "Runtime: integer written to a pointer field" msg;
      (match payload with
       | [ V.Ptr p; z1; z2; z3 ] ->
         Alcotest.(check bool) (name ^ ": field 0 stored") false
           (Mem.Addr.is_null p);
         Alcotest.(check bool) (name ^ ": fields 1-3 zero") true
           (List.for_all (fun v -> V.equal v V.zero) [ z1; z2; z3 ])
       | _ -> Alcotest.failf "%s: unexpected payload" name);
      Alcotest.(check bool) (name ^ ": twin agrees") true
        (fast = run safe_tier cfg))
    configs

let twin_prop =
  QCheck.Test.make ~name:"block-handle façade matches its safe-tier twin"
    ~count:60 arb_fprogram (fun ops ->
      List.for_all
        (fun cfg ->
          let fast = run_facade block_handles cfg ops
          and safe = run_facade safe_tier cfg ops in
          if fast = safe then true
          else
            QCheck.Test.fail_reportf "diverged under %s" (Gsc.Config.name cfg))
        twin_configs)

let () =
  Alcotest.run "runtime"
    [ ( "typing",
        [ Alcotest.test_case "operand typing" `Quick operand_typing;
          Alcotest.test_case "operands allocate nothing" `Quick
            operands_allocate_nothing ] );
      ( "roots",
        [ Alcotest.test_case "registers" `Quick registers_are_roots;
          Alcotest.test_case "callee-save spill" `Quick
            callee_save_spill_through_gc;
          Alcotest.test_case "compute trace" `Quick compute_trace_through_gc;
          Alcotest.test_case "globals" `Quick globals_are_roots;
          Alcotest.test_case "bad global index" `Quick bad_global_index_raises;
          Alcotest.test_case "young global counted" `Quick young_global_counted;
          Alcotest.test_case "young heap field caught" `Quick young_field_caught;
          Alcotest.test_case "young heap field control" `Quick
            young_field_control;
          Alcotest.test_case "global across 100 minors (pinned)" `Quick
            global_survives_minors ] );
      ( "exceptions",
        [ Alcotest.test_case "nested" `Quick nested_exceptions;
          Alcotest.test_case "unhandled" `Quick unhandled_raise_fails;
          Alcotest.test_case "raise past markers (pinned seed)" `Quick
            deep_raise_pinned ] );
      ( "rejected allocation",
        [ Alcotest.test_case "no nursery hole" `Quick
            rejected_header_leaves_no_hole;
          Alcotest.test_case "no leaked free-list grant" `Quick
            rejected_pretenured_header_leaks_no_grant ] );
      ( "rejected field store",
        [ Alcotest.test_case "record stays zeroed and walkable" `Quick
            rejected_field_store ] );
      ( "call",
        [ Alcotest.test_case "arity checked before the push" `Quick
            call_arity_checked_before_push;
          Alcotest.test_case "host exception pops its own frame" `Quick
            host_exception_pops_own_frame ] );
      ( "stack hygiene",
        [ Alcotest.test_case "fresh frame after a return or a raise" `Quick
            fresh_frame_after_pop_and_raise;
          Alcotest.test_case "growth between collections" `Quick
            stack_growth_between_collections ] );
      ("twin", [ QCheck_alcotest.to_alcotest twin_prop ]);
      ("torture", [ QCheck_alcotest.to_alcotest torture_prop ]) ]
