(* Unit and property tests for the stack substrate: trace tables, the
   two-pass scan (callee-save and compute resolution), the scan cache,
   and the stack-marker state machine. *)

module T = Rstack.Trace
module TT = Rstack.Trace_table
module St = Rstack.Stack_

(* push a frame of [key], its entry looked up in the stack's own table *)
let push_frame stack ~key = St.push stack ~key (TT.lookup (St.table stack) key)

(* slot 0 of the frame at depth index [i] *)
let slot0 stack i = Mem.Value.decode (St.words stack).(St.base_at stack i)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk_table () = TT.create ()

let reg_entry ~name ~slots ?(regs = TT.plain_regs ()) table =
  TT.register table { TT.name; slots; regs }

let some_addr = Mem.Addr.make ~block:3 ~offset:0
let ptr = Mem.Value.Ptr some_addr

(* the buffer's roots in push order *)
let roots_of b =
  let acc = ref [] in
  Rstack.Root.Buf.iter b
    (fun () cells index -> acc := { Rstack.Root.cells; index } :: !acc)
    ();
  List.rev !acc

let scan ?(mode = Rstack.Scan.Full) ?(valid = 0) ~stack ~regs ~cache () =
  let roots = Rstack.Root.Buf.create () in
  let res =
    Rstack.Scan.run ~stack ~regs ~cache ~valid_prefix:valid ~mode ~roots
  in
  (res, roots_of roots)

(* --- trace table --- *)

let table_validation () =
  let t = mk_table () in
  Alcotest.check_raises "bad callee-save register"
    (Invalid_argument "Trace_table.register: register index out of range")
    (fun () ->
      ignore (reg_entry t ~name:"bad" ~slots:[| T.Callee_save 99 |]));
  Alcotest.check_raises "bad compute slot"
    (Invalid_argument "Trace_table.register: slot index out of frame")
    (fun () ->
      ignore (reg_entry t ~name:"bad" ~slots:[| T.Compute (T.Type_in_slot 5) |]));
  let k = reg_entry t ~name:"ok" ~slots:[| T.Ptr; T.Non_ptr |] in
  check_int "frame size" 2 (Array.length (TT.lookup t k).TT.slots)

(* --- basic scanning --- *)

let scan_finds_pointer_slots () =
  let t = mk_table () in
  let k = reg_entry t ~name:"f" ~slots:[| T.Ptr; T.Non_ptr; T.Ptr |] in
  let stack = St.create t in
  let regs = Rstack.Reg_file.create () in
  push_frame stack ~key:k;
  St.set stack 0 ptr;
  St.set stack 2 ptr;
  let res, roots = scan ~stack ~regs ~cache:(Rstack.Scan_cache.create ()) () in
  check_int "roots" 2 (List.length roots);
  check_int "decoded" 1 res.Rstack.Scan.frames_decoded;
  check_int "slots" 3 res.Rstack.Scan.slots_decoded

let scan_callee_save () =
  (* caller leaves a pointer in register 5; callee spills it; the spill
     slot is a root only because of the caller's register trace *)
  let t = mk_table () in
  let caller_regs = TT.plain_regs () in
  caller_regs.(5) <- T.Reg_ptr;
  let k_caller = reg_entry t ~name:"caller" ~slots:[||] ~regs:caller_regs in
  let callee_regs = TT.plain_regs () in
  callee_regs.(5) <- T.Reg_callee_save;
  let k_callee =
    reg_entry t ~name:"callee" ~slots:[| T.Callee_save 5 |] ~regs:callee_regs
  in
  let stack = St.create t in
  let regs = Rstack.Reg_file.create () in
  push_frame stack ~key:k_caller;
  push_frame stack ~key:k_callee;
  St.set stack 0 ptr;
  Rstack.Reg_file.set regs 5 ptr;
  let _, roots = scan ~stack ~regs ~cache:(Rstack.Scan_cache.create ()) () in
  (* spill slot + live register *)
  check_int "roots" 2 (List.length roots);
  (* now the caller says register 5 is an integer: no roots *)
  let t2 = mk_table () in
  let k_caller2 = reg_entry t2 ~name:"caller" ~slots:[||] in
  let k_callee2 =
    reg_entry t2 ~name:"callee" ~slots:[| T.Callee_save 5 |] ~regs:callee_regs
  in
  let stack2 = St.create t2 in
  push_frame stack2 ~key:k_caller2;
  push_frame stack2 ~key:k_callee2;
  St.set stack2 0 (Mem.Value.Int 7);
  let _, roots2 = scan ~stack:stack2 ~regs ~cache:(Rstack.Scan_cache.create ()) () in
  check_int "no roots when caller register dead" 0 (List.length roots2)

let scan_compute () =
  let t = mk_table () in
  let k =
    reg_entry t ~name:"poly"
      ~slots:[| T.Non_ptr; T.Compute (T.Type_in_slot 0) |]
  in
  let stack = St.create t in
  let regs = Rstack.Reg_file.create () in
  push_frame stack ~key:k;
  St.set stack 0 (Mem.Value.Int T.type_code_boxed);
  St.set stack 1 ptr;
  let _, roots = scan ~stack ~regs ~cache:(Rstack.Scan_cache.create ()) () in
  check_int "boxed: one root" 1 (List.length roots);
  St.set stack 0 (Mem.Value.Int T.type_code_word);
  let _, roots = scan ~stack ~regs ~cache:(Rstack.Scan_cache.create ()) () in
  check_int "unboxed: no roots" 0 (List.length roots)

(* --- cache reuse --- *)

let deep_stack table key n =
  let stack = St.create table in
  for _ = 1 to n do
    push_frame stack ~key;
    St.set stack 0 ptr
  done;
  stack

let scan_cache_reuse () =
  let t = mk_table () in
  let k = reg_entry t ~name:"f" ~slots:[| T.Ptr; T.Non_ptr |] in
  let stack = deep_stack t k 50 in
  let regs = Rstack.Reg_file.create () in
  let cache = Rstack.Scan_cache.create () in
  let res1, roots1 = scan ~stack ~regs ~cache () in
  check_int "first scan decodes all" 50 res1.Rstack.Scan.frames_decoded;
  (* second scan with a 40-frame valid prefix *)
  let res2, roots2 = scan ~valid:40 ~stack ~regs ~cache () in
  check_int "reused" 40 res2.Rstack.Scan.frames_reused;
  check_int "decoded" 10 res2.Rstack.Scan.frames_decoded;
  check_int "same root count (Full mode)" (List.length roots1)
    (List.length roots2);
  (* minor mode skips the cached prefix entirely *)
  let res3, roots3 = scan ~mode:Rstack.Scan.Minor ~valid:40 ~stack ~regs ~cache () in
  check_int "minor reports only fresh" 10 (List.length roots3);
  check_int "minor reuses" 40 res3.Rstack.Scan.frames_reused

let scan_cache_serial_guard () =
  let t = mk_table () in
  let k = reg_entry t ~name:"f" ~slots:[| T.Ptr |] in
  let stack = deep_stack t k 10 in
  let regs = Rstack.Reg_file.create () in
  let cache = Rstack.Scan_cache.create () in
  ignore (scan ~stack ~regs ~cache ());
  (* replace the top 5 frames: serials change *)
  St.unwind_to stack ~depth:5;
  for _ = 1 to 5 do
    push_frame stack ~key:k
  done;
  (* claiming a 10-deep valid prefix must be caught *)
  (match scan ~valid:10 ~stack ~regs ~cache () with
   | _ -> Alcotest.fail "expected serial mismatch"
   | exception Invalid_argument _ -> ());
  Alcotest.check_raises "message"
    (Invalid_argument "Scan.run: cache serial mismatch (marker invariant broken)")
    (fun () -> ignore (scan ~valid:10 ~stack ~regs ~cache ()));
  (* a 5-deep prefix is fine *)
  let res, _ = scan ~valid:5 ~stack ~regs ~cache () in
  check_int "reused 5" 5 res.Rstack.Scan.frames_reused

(* property: a cached scan reports exactly the roots a fresh scan would.
   Random push/pop/raise/mutate traffic runs against the marker state
   machine; a "collection" scans with the markers' valid prefix (in
   either mode) and places markers, a bare scan only scans.  After every
   cached scan its roots must be the same cells, in the same order, as a
   Full scan from scratch — all of them in Full mode, those outside the
   reused prefix in Minor mode — and decoded plus reused frames must
   cover the stack.  Frames mix plain, callee-save and compute slots
   over pointer, callee-save and non-pointer registers, so the cached
   register status at the prefix boundary matters. *)
type cache_op =
  | C_push of int  (* trace-table key *)
  | C_pop
  | C_raise of int  (* unwind to this share (of 8) of the depth *)
  | C_mutate of bool  (* top frame's type code: boxed? *)
  | C_scan of bool  (* Full mode? *)
  | C_collect of bool  (* scan (Full mode?), then place markers *)

let cache_op_gen =
  QCheck.Gen.(
    frequency
      [ (8, map (fun k -> C_push k) (int_bound 3));
        (4, return C_pop);
        (1, map (fun d -> C_raise d) (int_bound 7));
        (2, map (fun b -> C_mutate b) bool);
        (1, map (fun b -> C_scan b) bool);
        (3, map (fun b -> C_collect b) bool) ])

let show_cache_op = function
  | C_push k -> Printf.sprintf "push %d" k
  | C_pop -> "pop"
  | C_raise d -> Printf.sprintf "raise %d/8" d
  | C_mutate b -> Printf.sprintf "mutate %b" b
  | C_scan b -> Printf.sprintf "scan full=%b" b
  | C_collect b -> Printf.sprintf "collect full=%b" b

let cache_equivalence_prop =
  QCheck.Test.make ~name:"cached scans report a fresh scan's roots" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_cache_op ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 20 200) cache_op_gen))
    (fun ops ->
      let t = mk_table () in
      let regs_of l =
        let r = TT.plain_regs () in
        List.iter (fun (i, tr) -> r.(i) <- tr) l;
        r
      in
      let keys =
        [| reg_entry t ~name:"plain" ~slots:[| T.Ptr; T.Non_ptr; T.Ptr |]
             ~regs:(regs_of [ (3, T.Reg_ptr); (5, T.Reg_non_ptr) ]);
           reg_entry t ~name:"spill" ~slots:[| T.Callee_save 3; T.Ptr |]
             ~regs:(regs_of [ (3, T.Reg_callee_save); (5, T.Reg_ptr) ]);
           reg_entry t ~name:"poly"
             ~slots:[| T.Non_ptr; T.Compute (T.Type_in_slot 0); T.Callee_save 5 |]
             ~regs:(regs_of [ (3, T.Reg_non_ptr); (5, T.Reg_callee_save) ]);
           reg_entry t ~name:"boxed-reg"
             ~slots:[| T.Compute (T.Type_in_reg 7); T.Callee_save 5 |]
             ~regs:(regs_of [ (3, T.Reg_callee_save); (5, T.Reg_callee_save) ]) |]
      in
      let stack = St.create t in
      let regs = Rstack.Reg_file.create () in
      (* register contents never change: a compute slot typed by a
         register reads it at scan time, for cached frames too *)
      Rstack.Reg_file.set regs 3 ptr;
      Rstack.Reg_file.set regs 5 ptr;
      Rstack.Reg_file.set regs 7 (Mem.Value.Int T.type_code_boxed);
      let cache = Rstack.Scan_cache.create () in
      let m = Rstack.Markers.create ~n:5 in
      let push k =
        push_frame stack ~key:keys.(k);
        if k = 2 then St.set stack 0 (Mem.Value.Int T.type_code_word)
      in
      for k = 0 to 11 do
        push (k mod 4)
      done;
      let cells roots = List.map (fun r -> (r.Rstack.Root.cells, r.Rstack.Root.index)) roots in
      let same a b =
        List.length a = List.length b
        && List.for_all2 (fun (c, i) (c', i') -> c == c' && i = i') a b
      in
      let check ~full =
        let valid =
          min (Rstack.Markers.valid_prefix m)
            (min (Rstack.Scan_cache.length cache) (St.depth stack))
        in
        let mode = if full then Rstack.Scan.Full else Rstack.Scan.Minor in
        let res, got = scan ~mode ~valid ~stack ~regs ~cache () in
        let _, fresh =
          scan ~stack ~regs ~cache:(Rstack.Scan_cache.create ()) ()
        in
        (* the reused frames' slots are the words array's first [stop]
           cells *)
        let stop =
          if valid = 0 then 0
          else St.base_at stack (valid - 1) + St.size_at stack (valid - 1)
        in
        let in_prefix (c, i) = c == St.words stack && i < stop in
        let expected =
          if full then cells fresh
          else List.filter (fun r -> not (in_prefix r)) (cells fresh)
        in
        same (cells got) expected
        && res.Rstack.Scan.frames_decoded + res.Rstack.Scan.frames_reused
           = St.depth stack
        && res.Rstack.Scan.frames_reused = valid
      in
      List.for_all
        (fun op ->
          match op with
          | C_push k ->
            push k;
            true
          | C_pop ->
            if St.depth stack > 0 then begin
              let d = St.depth stack in
              Rstack.Markers.frame_popped m ~marked:(St.pop stack) ~depth:d
            end;
            true
          | C_raise share ->
            let target = St.depth stack * share / 8 in
            St.unwind_to stack ~depth:target;
            Rstack.Markers.exception_unwound m ~target_depth:target;
            true
          | C_mutate boxed ->
            (* only the active frame writes its slots *)
            (let d = St.depth stack in
             if d > 0 && St.key_at stack (d - 1) = keys.(2) then
               St.set stack 0
                 (Mem.Value.Int
                    (if boxed then T.type_code_boxed else T.type_code_word)));
            true
          | C_scan full -> check ~full
          | C_collect full ->
            let ok = check ~full in
            ignore (Rstack.Markers.place m stack : int);
            ok)
        ops)

(* --- markers --- *)

let markers_basic () =
  let t = mk_table () in
  let k = reg_entry t ~name:"f" ~slots:[| T.Ptr |] in
  let stack = deep_stack t k 100 in
  let m = Rstack.Markers.create ~n:25 in
  check_int "no reuse before placement" 0 (Rstack.Markers.valid_prefix m);
  ignore (Rstack.Markers.place m stack : int);
  (* deepest marker is at depth 100; the top frame is excluded *)
  check_int "after placement" 99 (Rstack.Markers.valid_prefix m);
  (* pop 10 frames: the marker at 100 fires, 75 remains; frame 75 itself
     may have resumed, so 74 frames are reusable *)
  for _ = 1 to 10 do
    let d = St.depth stack in
    Rstack.Markers.frame_popped m ~marked:(St.pop stack) ~depth:d
  done;
  check_int "marker at 75 bounds reuse" 74 (Rstack.Markers.valid_prefix m);
  check_int "one stub hit" 1 (Rstack.Markers.stub_hits m)

let markers_push_between () =
  let t = mk_table () in
  let k = reg_entry t ~name:"f" ~slots:[| T.Ptr |] in
  let stack = deep_stack t k 60 in
  let m = Rstack.Markers.create ~n:25 in
  ignore (Rstack.Markers.place m stack : int);
  check_int "valid 49" 49 (Rstack.Markers.valid_prefix m);
  (* pop 5 (no marker fired: 60 -> 55), push 20 new ones *)
  for _ = 1 to 5 do
    let d = St.depth stack in
    Rstack.Markers.frame_popped m ~marked:(St.pop stack) ~depth:d
  done;
  check_int "no marker fired" 49 (Rstack.Markers.valid_prefix m);
  for _ = 1 to 20 do
    push_frame stack ~key:k
  done;
  check_int "pushes do not hurt" 49 (Rstack.Markers.valid_prefix m)

let markers_exception_watermark () =
  let t = mk_table () in
  let k = reg_entry t ~name:"f" ~slots:[| T.Ptr |] in
  let stack = deep_stack t k 100 in
  let m = Rstack.Markers.create ~n:25 in
  ignore (Rstack.Markers.place m stack : int);
  (* an exception unwinds straight past the markers at 100, 75 and 50 *)
  St.unwind_to stack ~depth:40;
  Rstack.Markers.exception_unwound m ~target_depth:40;
  check_bool "watermark bounds reuse" true (Rstack.Markers.valid_prefix m <= 40);
  check_int "no stub hits" 0 (Rstack.Markers.stub_hits m)

let markers_idempotent_placement () =
  let t = mk_table () in
  let k = reg_entry t ~name:"f" ~slots:[| T.Ptr |] in
  let stack = deep_stack t k 100 in
  let m = Rstack.Markers.create ~n:25 in
  let first = Rstack.Markers.place m stack in
  check_int "four markers" 4 first;
  let second = Rstack.Markers.place m stack in
  check_int "already marked" 0 second

(* property: the prefix claimed reusable consists of frames that are both
   the SAME frames as at scan time (serials) and UNTOUCHED since (slot
   contents), under random pop/push/mutate/exception traffic.  Mutation
   models the runtime's rule that only the active (top) frame's slots are
   ever written. *)
let markers_prop =
  QCheck.Test.make ~name:"marker prefix is always sound" ~count:500
    QCheck.(list (int_range 0 11))
    (fun ops ->
      let t = mk_table () in
      let k = reg_entry t ~name:"f" ~slots:[| T.Non_ptr |] in
      let stack = St.create t in
      for _ = 1 to 80 do
        push_frame stack ~key:k
      done;
      let m = Rstack.Markers.create ~n:10 in
      ignore (Rstack.Markers.place m stack : int);
      (* remember serials and slot contents present at scan time *)
      let serials_at_scan =
        Array.init (St.depth stack) (St.serial_at stack)
      in
      let slots_at_scan =
        Array.init (St.depth stack) (slot0 stack)
      in
      let stamp = ref 1000 in
      let mutate_top () =
        if St.depth stack > 0 then begin
          incr stamp;
          St.set stack 0 (Mem.Value.Int !stamp)
        end
      in
      let check ok =
        let v = Rstack.Markers.valid_prefix m in
        if v > St.depth stack || v > Array.length serials_at_scan then
          ok := false
        else
          for i = 0 to v - 1 do
            if
              St.serial_at stack i <> serials_at_scan.(i)
              || not (Mem.Value.equal (slot0 stack i) slots_at_scan.(i))
            then ok := false
          done
      in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | 0 | 1 | 2 ->
            (* pop a few; the frame exposed on top resumes and mutates *)
            for _ = 1 to 3 do
              if St.depth stack > 0 then begin
                let d = St.depth stack in
                Rstack.Markers.frame_popped m ~marked:(St.pop stack) ~depth:d;
                mutate_top ()
              end
            done
          | 3 | 4 | 5 ->
            for _ = 1 to 4 do
              push_frame stack ~key:k;
              mutate_top ()
            done
          | 6 ->
            (* exception unwind; the handler frame resumes and mutates *)
            let target = St.depth stack / 2 in
            St.unwind_to stack ~depth:target;
            Rstack.Markers.exception_unwound m ~target_depth:target;
            mutate_top ()
          | 7 | 8 ->
            (* the active frame keeps computing *)
            mutate_top ()
          | _ -> check ok)
        ops;
      check ok;
      !ok)

let scan_empty_stack () =
  let t = mk_table () in
  let stack = St.create t in
  let regs = Rstack.Reg_file.create () in
  let res, roots = scan ~stack ~regs ~cache:(Rstack.Scan_cache.create ()) () in
  check_int "no roots" 0 (List.length roots);
  check_int "no frames" 0 res.Rstack.Scan.depth

let scan_fully_cached () =
  let t = mk_table () in
  let k = reg_entry t ~name:"f" ~slots:[| T.Ptr |] in
  let stack = deep_stack t k 10 in
  let regs = Rstack.Reg_file.create () in
  let cache = Rstack.Scan_cache.create () in
  ignore (scan ~stack ~regs ~cache ());
  (* a full prefix: Full mode replays every root, Minor reports none *)
  let _, roots_full = scan ~valid:10 ~stack ~regs ~cache () in
  check_int "full replays all" 10 (List.length roots_full);
  let res, roots_minor =
    scan ~mode:Rstack.Scan.Minor ~valid:10 ~stack ~regs ~cache ()
  in
  check_int "minor reports none" 0 (List.length roots_minor);
  check_int "nothing decoded" 0 res.Rstack.Scan.frames_decoded

let markers_spacing_exceeds_depth () =
  let t = mk_table () in
  let k = reg_entry t ~name:"f" ~slots:[| T.Ptr |] in
  let stack = deep_stack t k 10 in
  let m = Rstack.Markers.create ~n:25 in
  check_int "nothing installed" 0 (Rstack.Markers.place m stack);
  check_int "no reuse possible" 0 (Rstack.Markers.valid_prefix m)

let markers_full_unwind () =
  let t = mk_table () in
  let k = reg_entry t ~name:"f" ~slots:[| T.Ptr |] in
  let stack = deep_stack t k 60 in
  let m = Rstack.Markers.create ~n:10 in
  ignore (Rstack.Markers.place m stack : int);
  St.unwind_to stack ~depth:0;
  Rstack.Markers.exception_unwound m ~target_depth:0;
  check_int "empty stack reuses nothing" 0 (Rstack.Markers.valid_prefix m)

(* --- stack bookkeeping --- *)

let new_frames_counting () =
  let t = mk_table () in
  let k = reg_entry t ~name:"f" ~slots:[| T.Ptr |] in
  let stack = St.create t in
  for _ = 1 to 10 do
    push_frame stack ~key:k
  done;
  let mark = St.next_serial stack - 1 in
  check_int "all new initially" 10 (St.count_new_frames stack ~since_serial:(-1));
  check_int "none new after mark" 0 (St.count_new_frames stack ~since_serial:mark);
  push_frame stack ~key:k;
  push_frame stack ~key:k;
  check_int "two new" 2 (St.count_new_frames stack ~since_serial:mark)

(* --- stack hygiene --- *)

(* the frame at the top reads [expected], slot by slot *)
let check_top stack what expected =
  List.iteri
    (fun i v ->
      check_bool
        (Printf.sprintf "%s: slot %d" what i)
        true
        (Mem.Value.equal v (St.get stack i)))
    expected

(* a frame pushed where a popped or unwound frame lay reads null in its
   pointer-traced and callee-save slots and zero elsewhere, whatever the
   old frame left there: pointers where the new frame has non-pointer
   slots, integers where it has pointer slots *)
let fresh_frame_hides_stale_words () =
  let t = mk_table () in
  let k_dirty = reg_entry t ~name:"dirty" ~slots:(Array.make 4 T.Non_ptr) in
  let k =
    reg_entry t ~name:"mixed"
      ~slots:[| T.Ptr; T.Non_ptr; T.Callee_save 3; T.Compute (T.Type_in_slot 1) |]
  in
  let stack = St.create t in
  let dirty () =
    push_frame stack ~key:k_dirty;
    for i = 0 to 3 do
      St.set stack i (if i mod 2 = 0 then Mem.Value.Int (100 + i) else ptr)
    done
  in
  let fresh = Mem.Value.[ null; zero; null; zero ] in
  push_frame stack ~key:k_dirty;
  dirty ();
  ignore (St.pop stack : bool);
  push_frame stack ~key:k;
  check_top stack "over a popped frame" fresh;
  ignore (St.pop stack : bool);
  dirty ();
  dirty ();
  St.unwind_to stack ~depth:1;
  push_frame stack ~key:k;
  check_top stack "over an unwound frame" fresh;
  push_frame stack ~key:k;
  check_top stack "over a frame unwound from deeper" fresh

(* a stack that outgrows its words array keeps every slot, and a scan
   after the growth reports cells of the new array only *)
let growth_keeps_slots () =
  let t = mk_table () in
  let k = reg_entry t ~name:"f" ~slots:[| T.Non_ptr; T.Ptr; T.Non_ptr |] in
  let stack = St.create t in
  let first = St.words stack in
  let n = ref 0 in
  let push () =
    push_frame stack ~key:k;
    St.set stack 0 (Mem.Value.Int !n);
    St.set stack 1 ptr;
    St.set stack 2 (Mem.Value.Int (- !n));
    incr n
  in
  while St.words stack == first do
    push ()
  done;
  for _ = 1 to !n do
    push ()
  done;
  for i = 0 to St.depth stack - 1 do
    let w = St.words stack and base = St.base_at stack i in
    check_bool (Printf.sprintf "frame %d" i) true
      (Mem.Value.decode w.(base) = Mem.Value.Int i
       && Mem.Value.decode w.(base + 1) = ptr
       && Mem.Value.decode w.(base + 2) = Mem.Value.Int (-i))
  done;
  let _, roots =
    scan ~stack ~regs:(Rstack.Reg_file.create ())
      ~cache:(Rstack.Scan_cache.create ()) ()
  in
  check_int "one root per frame" (St.depth stack) (List.length roots);
  check_bool "every root in the current array" true
    (List.for_all (fun r -> r.Rstack.Root.cells == St.words stack) roots)

(* --- the root buffer --- *)

(* A root buffer stores one cell array per run of consecutive roots from
   that array, so its order must survive any interleaving of sources:
   pushes alternate at random between the stack's words, the globals,
   the exception cell and the register file, with [clear]s in between
   (a cleared buffer is refilled from scratch).  After every operation
   [iter] and [get] must give back exactly the pushed (array, index)
   pairs, in push order, with the arrays physically the pushed ones. *)
type root_op = Push of int * int | Clear

let root_op_gen =
  QCheck.Gen.(
    frequency
      [ (1, return Clear);
        (30, map2 (fun src i -> Push (src, i)) (int_range 0 3) (int_range 0 1000))
      ])

let root_buf_order_prop =
  let t = mk_table () in
  let k = reg_entry t ~name:"f" ~slots:[| T.Ptr; T.Non_ptr; T.Ptr; T.Ptr |] in
  let stack = St.create t in
  for _ = 1 to 8 do
    push_frame stack ~key:k
  done;
  let regs = Rstack.Reg_file.create () in
  let sources =
    [| St.words stack; Array.make 7 0; Array.make 1 0;
       Rstack.Reg_file.cells regs |]
  in
  QCheck.Test.make ~name:"root buffer keeps push order across sources"
    ~count:300
    (QCheck.make
       ~print:(fun ops ->
         String.concat " "
           (List.map
              (function
                | Clear -> "clear"
                | Push (src, i) -> Printf.sprintf "%d:%d" src i)
              ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 0 300) root_op_gen))
    (fun ops ->
      let b = Rstack.Root.Buf.create () in
      let model = ref [] in
      let agrees () =
        let want = List.rev !model in
        let seen = roots_of b in
        Rstack.Root.Buf.length b = List.length want
        && List.length seen = List.length want
        && List.for_all2
             (fun r (c, i) -> r.Rstack.Root.cells == c && r.Rstack.Root.index = i)
             seen want
      in
      List.for_all
        (fun op ->
          (match op with
           | Clear ->
             Rstack.Root.Buf.clear b;
             model := []
           | Push (src, i) ->
             let cells = sources.(src) in
             let i = i mod Array.length cells in
             Rstack.Root.Buf.push b cells i;
             model := (cells, i) :: !model);
          agrees ())
        ops)

let () =
  Alcotest.run "rstack"
    [ ( "trace-table",
        [ Alcotest.test_case "validation" `Quick table_validation ] );
      ( "scan",
        [ Alcotest.test_case "pointer slots" `Quick scan_finds_pointer_slots;
          Alcotest.test_case "callee-save" `Quick scan_callee_save;
          Alcotest.test_case "compute" `Quick scan_compute ] );
      ( "cache",
        [ Alcotest.test_case "reuse" `Quick scan_cache_reuse;
          Alcotest.test_case "serial guard" `Quick scan_cache_serial_guard;
          QCheck_alcotest.to_alcotest cache_equivalence_prop ] );
      ( "scan-edges",
        [ Alcotest.test_case "empty stack" `Quick scan_empty_stack;
          Alcotest.test_case "fully cached" `Quick scan_fully_cached ] );
      ( "markers",
        [ Alcotest.test_case "basic" `Quick markers_basic;
          Alcotest.test_case "spacing exceeds depth" `Quick
            markers_spacing_exceeds_depth;
          Alcotest.test_case "full unwind" `Quick markers_full_unwind;
          Alcotest.test_case "push between" `Quick markers_push_between;
          Alcotest.test_case "exception watermark" `Quick
            markers_exception_watermark;
          Alcotest.test_case "idempotent placement" `Quick
            markers_idempotent_placement;
          QCheck_alcotest.to_alcotest markers_prop ] );
      ( "stack",
        [ Alcotest.test_case "new frames" `Quick new_frames_counting;
          Alcotest.test_case "fresh frame hides stale words" `Quick
            fresh_frame_hides_stale_words;
          Alcotest.test_case "growth keeps slots" `Quick growth_keeps_slots ] );
      ( "root-buffer",
        [ QCheck_alcotest.to_alcotest root_buf_order_prop ] ) ]
