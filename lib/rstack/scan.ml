type mode =
  | Minor
  | Full

type result = {
  mutable depth : int;
  mutable frames_decoded : int;
  mutable frames_reused : int;
  mutable slots_decoded : int;
  mutable roots_visited : int;
}

let result () =
  { depth = 0;
    frames_decoded = 0;
    frames_reused = 0;
    slots_decoded = 0;
    roots_visited = 0 }

let type_code_of regs words base = function
  | Trace.Type_in_slot i -> Mem.Value.decode_int (Array.unsafe_get words (base + i))
  | Trace.Type_in_reg r -> Mem.Value.decode_int (Reg_file.get_word regs r)

(* Decode the frame of [key] at [base] in [words] given the caller-side
   register [status] (a bitmask): appends its root slot indexes, in slot
   order, to [cache] and its roots to [roots], and returns the status
   after the frame.  No closure and no allocation per frame — root
   processing is the GC hot loop the paper's Section 5 attacks. *)
let decode table regs cache roots words base key status =
  let traces = (Trace_table.lookup table key).Trace_table.slots in
  for i = 0 to Array.length traces - 1 do
    let root =
      match Array.unsafe_get traces i with
      | Trace.Ptr -> true
      | Trace.Non_ptr -> false
      | Trace.Callee_save r -> status land (1 lsl r) <> 0
      | Trace.Compute src ->
        let code = type_code_of regs words base src in
        if code = Trace.type_code_boxed then true
        else if code <> Trace.type_code_word then
          invalid_arg "Scan: bad runtime type code"
        else false
    in
    if root then begin
      Scan_cache.add_slot cache i;
      Root.Buf.push roots words (base + i)
    end
  done;
  Trace_table.reg_status_after table key status

let run_into r ~stack ~regs ~cache ~valid_prefix ~mode ~roots =
  let depth = Stack_.depth stack in
  if valid_prefix < 0 then invalid_arg "Scan.run: negative prefix";
  if valid_prefix > depth || valid_prefix > Scan_cache.length cache then
    invalid_arg "Scan.run: valid prefix exceeds stack or cache";
  let table = Stack_.table stack in
  let words = Stack_.words stack in
  let roots_before = Root.Buf.length roots in
  (* cached prefix: the cache holds frame-relative slot indexes *)
  for i = 0 to valid_prefix - 1 do
    if Scan_cache.serial cache i <> Stack_.serial_at stack i then
      invalid_arg "Scan.run: cache serial mismatch (marker invariant broken)";
    match mode with
    | Minor -> ()
    | Full ->
      let base = Stack_.base_at stack i in
      for k = Scan_cache.slots_start cache i to Scan_cache.slots_stop cache i - 1 do
        Root.Buf.push roots words (base + Scan_cache.slot cache k)
      done
  done;
  (* fresh frames: resume pass two at the prefix boundary *)
  Scan_cache.truncate cache valid_prefix;
  let status =
    ref (if valid_prefix > 0 then Scan_cache.reg_status_after cache (valid_prefix - 1)
         else 0)
  in
  let slots_decoded = ref 0 in
  for i = valid_prefix to depth - 1 do
    status :=
      decode table regs cache roots words (Stack_.base_at stack i)
        (Stack_.key_at stack i) !status;
    slots_decoded := !slots_decoded + Stack_.size_at stack i;
    Scan_cache.add_frame cache ~serial:(Stack_.serial_at stack i)
      ~reg_status:!status
  done;
  (* live registers at the collection point *)
  let reg_cells = Reg_file.cells regs in
  for r = 0 to Trace.num_registers - 1 do
    if !status land (1 lsl r) <> 0 then Root.Buf.push roots reg_cells r
  done;
  let frames_decoded = depth - valid_prefix in
  let roots_visited = Root.Buf.length roots - roots_before in
  if Obs.Trace.enabled () then
    Obs.Trace.stack_scan
      ~mode:(match mode with Minor -> "minor" | Full -> "full")
      ~valid_prefix ~depth ~decoded:frames_decoded ~reused:valid_prefix
      ~slots:!slots_decoded ~roots:roots_visited;
  r.depth <- depth;
  r.frames_decoded <- frames_decoded;
  r.frames_reused <- valid_prefix;
  r.slots_decoded <- !slots_decoded;
  r.roots_visited <- roots_visited

let run ~stack ~regs ~cache ~valid_prefix ~mode ~roots =
  let r = result () in
  run_into r ~stack ~regs ~cache ~valid_prefix ~mode ~roots;
  r
