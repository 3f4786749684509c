module R = Gsc.Runtime

let cons_int rt ~site ~list v =
  R.alloc_record rt ~site ~dst:(R.To_slot list)
    [ R.I (R.Imm v); R.P (R.Slot list) ]

let cons_ptr rt ~site ~head_slot ~list =
  R.alloc_record rt ~site ~dst:(R.To_slot list)
    [ R.P (R.Slot head_slot); R.P (R.Slot list) ]

let list_head_int rt ~list = R.field_int rt ~obj:(R.Slot list) ~idx:0

let list_advance rt ~list =
  R.load_field rt ~obj:(R.Slot list) ~idx:1 ~dst:(R.To_slot list)

(* the walks build their cursor operands once per call, not once per
   element: each [R.Slot]/[R.To_slot] is a host allocation *)
let list_length rt ~list ~cursor =
  R.set_slot rt cursor (R.get_slot rt list);
  let src = R.Slot cursor and dst = R.To_slot cursor in
  let n = ref 0 in
  while not (R.is_nil rt src) do
    incr n;
    R.load_field rt ~obj:src ~idx:1 ~dst
  done;
  !n

let iter_int rt ~list ~cursor f =
  R.set_slot rt cursor (R.get_slot rt list);
  let src = R.Slot cursor and dst = R.To_slot cursor in
  while not (R.is_nil rt src) do
    f (R.field_int rt ~obj:src ~idx:0);
    R.load_field rt ~obj:src ~idx:1 ~dst
  done

let ptr_slots n = Array.make n Rstack.Trace.Ptr

let slots spec =
  Array.init (String.length spec) (fun i ->
    match spec.[i] with
    | 'p' -> Rstack.Trace.Ptr
    | 'i' -> Rstack.Trace.Non_ptr
    | c -> invalid_arg (Printf.sprintf "Dsl.slots: bad spec char %c" c))
