(* End-to-end smoke tests: a small mutator program run under every
   collector configuration must produce the same results and survive many
   collections. *)

module R = Gsc.Runtime

let mk_runtime cfg = R.create cfg

(* Build a simulated cons list of [n] integers and sum it, allocating
   enough garbage on the side to force collections. *)
let run_list_sum cfg n =
  let rt = mk_runtime cfg in
  Fun.protect ~finally:(fun () -> R.destroy rt) @@ fun () ->
  let site_cons = R.register_site rt ~name:"cons" in
  let site_junk = R.register_site rt ~name:"junk" in
  (* slots: 0 = list head (ptr), 1 = junk scratch (ptr), 2 = loop int *)
  let key =
    R.register_frame rt ~name:"list_sum"
      ~slots:[| Rstack.Trace.Ptr; Rstack.Trace.Ptr; Rstack.Trace.Non_ptr |]
  in
  R.call0 rt ~key (fun () ->
    R.move rt R.nil (R.to_slot 0);
    for i = 1 to n do
      (* cons cell: (int, next) *)
      R.alloc_record2 rt ~site:site_cons ~mask:0b10 ~dst:(R.to_slot 0)
        (R.imm i) (R.slot 0);
      (* garbage to provoke collections *)
      R.alloc_record2 rt ~site:site_junk ~mask:0 ~dst:(R.to_slot 1)
        (R.imm i) (R.imm (i * 2))
    done;
    (* sum the list *)
    let sum = ref 0 in
    while not (R.is_nil rt (R.slot 0)) do
      sum := !sum + R.field_int rt ~obj:(R.slot 0) ~idx:0;
      R.load_field rt ~obj:(R.slot 0) ~idx:1 ~dst:(R.to_slot 0)
    done;
    let live = R.check_heap rt in
    (!sum, live, R.stats rt)) ()

let expected_sum n = n * (n + 1) / 2

let check_config name cfg () =
  let n = 2000 in
  let sum, _live, stats = run_list_sum cfg n in
  Alcotest.(check int) (name ^ ": sum") (expected_sum n) sum;
  Alcotest.(check bool)
    (name ^ ": collected at least once")
    true
    (Collectors.Gc_stats.gcs stats > 0)

let budget = 512 * 1024

let semi () = check_config "semi" (Gsc.Config.semispace ~budget_bytes:budget) ()
let gen () = check_config "gen" (Gsc.Config.generational ~budget_bytes:budget) ()

let gen_markers () =
  check_config "gen+markers" (Gsc.Config.with_markers ~budget_bytes:budget) ()

let gen_profiled () =
  let cfg =
    { (Gsc.Config.generational ~budget_bytes:budget) with
      Gsc.Config.profiling = true }
  in
  check_config "gen+profiling" cfg ()

let deep_recursion () =
  (* non-tail recursion: each level holds a live pointer in its frame *)
  let cfg = Gsc.Config.with_markers ~budget_bytes:(256 * 1024) in
  let rt = mk_runtime cfg in
  Fun.protect ~finally:(fun () -> R.destroy rt) @@ fun () ->
  let site = R.register_site rt ~name:"node" in
  let key =
    R.register_frame rt ~name:"deep"
      ~slots:[| Rstack.Trace.Ptr; Rstack.Trace.Ptr |]
  in
  let rec go depth =
    R.alloc_record2 rt ~site ~mask:0b10 ~dst:(R.to_slot 0)
      (R.imm depth) (R.slot 0);
    (* garbage so that collections happen while the stack is deep *)
    for _ = 1 to 10 do
      R.alloc_record1 rt ~site ~mask:0 ~dst:(R.to_slot 1) (R.imm 0)
    done;
    if depth = 0 then 0
    else begin
      let below = call (depth - 1) in
      (* our node must still be valid after the recursive work *)
      below + R.field_int rt ~obj:(R.slot 0) ~idx:0
    end
  and call depth = R.call2 rt ~key R.nil (R.imm depth) go depth in
  let total = call 500 in
  Alcotest.(check int) "sum of depths" (500 * 501 / 2) total;
  let stats = R.stats rt in
  Alcotest.(check bool) "reused frames" true
    (stats.Collectors.Gc_stats.frames_reused > 0)

let exception_unwind () =
  let cfg = Gsc.Config.with_markers ~budget_bytes:(128 * 1024) in
  let rt = mk_runtime cfg in
  Fun.protect ~finally:(fun () -> R.destroy rt) @@ fun () ->
  let site = R.register_site rt ~name:"n" in
  let key = R.register_frame rt ~name:"f" ~slots:[| Rstack.Trace.Ptr |] in
  let result =
    R.call0 rt ~key (fun () ->
      R.try_with rt
        (fun () ->
          let rec go d =
            R.call0 rt ~key (fun () ->
              R.alloc_record2 rt ~site ~mask:0 ~dst:(R.to_slot 0)
                (R.imm d) (R.imm 0);
              if d = 0 then R.raise_exn rt (R.imm 42) else go (d - 1)) ()
          in
          go 100)
        ~handler:(fun () -> Mem.Value.to_int (R.exn_value rt))) ()
  in
  Alcotest.(check int) "handler value" 42 result;
  Alcotest.(check int) "stack rebalanced" 0 (R.depth rt);
  (* keep allocating after the unwind: collections must stay sound *)
  R.call0 rt ~key (fun () ->
    for i = 0 to 5000 do
      R.alloc_record2 rt ~site ~mask:0 ~dst:(R.to_slot 0) (R.imm i) (R.imm i)
    done;
    ignore (R.check_heap rt : int)) ()

let () =
  Alcotest.run "smoke"
    [ ( "end-to-end",
        [ Alcotest.test_case "semispace list sum" `Quick semi;
          Alcotest.test_case "generational list sum" `Quick gen;
          Alcotest.test_case "markers list sum" `Quick gen_markers;
          Alcotest.test_case "profiled list sum" `Quick gen_profiled;
          Alcotest.test_case "deep recursion" `Quick deep_recursion;
          Alcotest.test_case "exception unwind" `Quick exception_unwind ] ) ]
