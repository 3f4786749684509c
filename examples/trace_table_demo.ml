(* Figure 1 of the paper: a stack frame and its trace-table entry.

   Registers a frame whose slots exercise all four trace kinds — pointer,
   non-pointer, callee-save and compute — pushes it with live data, and
   prints both the table entry (the paper's right-hand box) and what the
   two-pass scan derives from it.

   Run with:  dune exec examples/trace_table_demo.exe *)

module R = Gsc.Runtime
module T = Rstack.Trace

let () =
  let rt = R.create (Gsc.Config.generational ~budget_bytes:(256 * 1024)) in
  Fun.protect ~finally:(fun () -> R.destroy rt) @@ fun () ->
  let site = R.register_site rt ~name:"demo.record" in
  (* the caller keeps a pointer in register 10, which the callee saves in
     its sixth slot — figure 1's "COMPUTE: CALLEE $10" scenario *)
  let caller_regs = Rstack.Trace_table.plain_regs () in
  caller_regs.(10) <- T.Reg_ptr;
  let caller_key =
    R.register_frame_regs rt ~name:"demo.caller" ~slots:[| T.Ptr |]
      ~regs:caller_regs
  in
  let callee_regs = Rstack.Trace_table.plain_regs () in
  callee_regs.(10) <- T.Reg_callee_save;
  let callee_key =
    R.register_frame_regs rt ~name:"demo.callee"
      ~slots:
        [| T.Non_ptr;                        (* slot 0: an integer *)
           T.Ptr;                            (* slot 1: a pointer *)
           T.Ptr;                            (* slot 2: a pointer *)
           T.Non_ptr;                        (* slot 3: a runtime type *)
           T.Compute (T.Type_in_slot 3);     (* slot 4: described by slot 3 *)
           T.Callee_save 10 |]               (* slot 5: caller's $10 *)
      ~regs:callee_regs
  in
  (* print the trace-table entry, Figure 1 style (the runtime's table is
     internal, so mirror the entry on a scratch table for printing) *)
  let scratch = Rstack.Trace_table.create () in
  let scratch_key =
    Rstack.Trace_table.register scratch
      { Rstack.Trace_table.name = "demo.callee";
        slots =
          [| T.Non_ptr; T.Ptr; T.Ptr; T.Non_ptr;
             T.Compute (T.Type_in_slot 3); T.Callee_save 10 |];
        regs = callee_regs }
  in
  Format.printf "%a@."
    (Rstack.Trace_table.pp_entry ~key:callee_key)
    (Rstack.Trace_table.lookup scratch scratch_key);
  (* build the frames and scan *)
  R.call0 rt ~key:caller_key (fun () ->
    R.alloc_record1 rt ~site ~mask:0 ~dst:(R.to_slot 0) (R.imm 1);
    R.alloc_record1 rt ~site ~mask:0 ~dst:(R.to_reg 10) (R.imm 2);
    R.call0 rt ~key:callee_key (fun () ->
      R.move rt (R.imm 42) (R.to_slot 0);
      R.alloc_record1 rt ~site ~mask:0 ~dst:(R.to_slot 1) (R.imm 3);
      R.alloc_record1 rt ~site ~mask:0 ~dst:(R.to_slot 2) (R.imm 4);
      (* slot 3 says "slot 4 is boxed"; slot 4 then needs a pointer *)
      R.move rt (R.imm Rstack.Trace.type_code_boxed) (R.to_slot 3);
      R.alloc_record1 rt ~site ~mask:0 ~dst:(R.to_slot 4) (R.imm 5);
      (* save the caller's register 10 into slot 5, as the callee would *)
      R.move rt (R.reg 10) (R.to_slot 5);
      let live = R.check_heap rt in
      Printf.printf
        "two-pass scan finds every root: %d live objects (expected 5)\n" live)
      ())
    ()
