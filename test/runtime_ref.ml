(* The reference façade: [Gsc.Runtime]'s heap-access operations and
   record allocation written against the safe memory API.  Every field
   touched goes through [Memory.get]/[set], every header through
   [Header.read], and every value is a boxed [Value.t].  It is the
   executable specification of the façade's block-handle path, kept here
   next to the property in test_runtime.ml that runs both on twin
   runtimes and requires identical heap words, results, exception
   messages and counters.

   Below the operand layer it reaches the runtime through
   [Runtime.Internal]: the allocation entry point and the write barrier
   are the façade's own, so only the tier differs. *)

module R = Gsc.Runtime
module V = Mem.Value
module H = Mem.Header
module M = Mem.Memory

let mut_op rt =
  let s = R.stats rt in
  s.Collectors.Gc_stats.mutator_ops <- s.Collectors.Gc_stats.mutator_ops + 1

let check_pointer_value = function
  | V.Ptr _ -> ()
  | V.Int _ -> invalid_arg "Runtime: integer written to a pointer field"

let check_integer_value = function
  | V.Int _ -> ()
  | V.Ptr a when Mem.Addr.is_null a -> ()
  | V.Ptr _ -> invalid_arg "Runtime: pointer written to an integer field"

(* the scan-elision fallback: under an eliding policy a pointer field of
   a tenured record that holds a nursery object is logged in the
   barrier, uncounted as an update *)
let elision_fallback rt ~obj ~loc v =
  let col = R.Internal.collector rt in
  let in_nursery = Collectors.Collector.in_nursery col in
  if Gsc.Pretenure.scan_elision (R.config rt).Gsc.Config.pretenure && V.is_ptr v
  then
    if in_nursery (V.to_addr v) && not (in_nursery obj) then begin
      Collectors.Collector.remember col ~obj ~loc;
      let s = R.stats rt in
      s.Collectors.Gc_stats.region_scan_fallbacks <-
        s.Collectors.Gc_stats.region_scan_fallbacks + 1
    end

let alloc_record rt ~site ~mask ~dst fields =
  let mem = R.Internal.memory rt in
  let len = Array.length fields in
  let base =
    R.Internal.alloc_object rt { H.kind = H.Record { mask }; len; site }
  in
  Array.iteri
    (fun i s ->
      let loc = H.field_addr base i in
      let v = R.read rt s in
      if mask land (1 lsl i) <> 0 then begin
        check_pointer_value v;
        M.set mem loc v;
        elision_fallback rt ~obj:base ~loc v
      end
      else begin
        check_integer_value v;
        M.set mem loc v
      end)
    fields;
  R.write rt dst (V.Ptr base)

let obj_base rt src =
  match R.read rt src with
  | V.Ptr a when not (Mem.Addr.is_null a) -> a
  | V.Ptr _ -> invalid_arg "Runtime: null pointer dereference"
  | V.Int _ -> invalid_arg "Runtime: dereferencing an integer"

let check_index hdr idx =
  if idx < 0 || idx >= hdr.H.len then
    invalid_arg "Runtime: field index out of bounds"

let load_field rt ~obj ~idx ~dst =
  mut_op rt;
  let mem = R.Internal.memory rt in
  let base = obj_base rt obj in
  let hdr = H.read mem base in
  check_index hdr idx;
  R.write rt dst (M.get mem (H.field_addr base idx))

let store_field rt ~obj ~idx ~ptr src =
  mut_op rt;
  let mem = R.Internal.memory rt in
  let base = obj_base rt obj in
  let hdr = H.read mem base in
  check_index hdr idx;
  let loc = H.field_addr base idx in
  if ptr then begin
    if not (H.is_pointer_field hdr idx) then
      invalid_arg "Runtime: pointer store into a non-pointer field";
    let v = R.read rt src in
    check_pointer_value v;
    M.set mem loc v;
    R.Internal.record_update rt ~obj:base ~loc
  end
  else begin
    if H.is_pointer_field hdr idx then
      invalid_arg "Runtime: integer store into a pointer field";
    let v = R.read rt src in
    check_integer_value v;
    M.set mem loc v
  end

let field_int rt ~obj ~idx =
  mut_op rt;
  let mem = R.Internal.memory rt in
  let base = obj_base rt obj in
  let hdr = H.read mem base in
  check_index hdr idx;
  V.to_int (M.get mem (H.field_addr base idx))

let header_of rt src = H.read (R.Internal.memory rt) (obj_base rt src)
let obj_length rt ~obj = (header_of rt obj).H.len
let obj_site rt ~obj = (header_of rt obj).H.site
