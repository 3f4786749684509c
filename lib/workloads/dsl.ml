module R = Gsc.Runtime

let cons_int rt ~site ~list v =
  R.alloc_record2 rt ~site ~mask:0b10 ~dst:(R.to_slot list) (R.imm v)
    (R.slot list)

let cons_ptr rt ~site ~head_slot ~list =
  R.alloc_record2 rt ~site ~mask:0b11 ~dst:(R.to_slot list) (R.slot head_slot)
    (R.slot list)

let list_head_int rt ~list = R.field_int rt ~obj:(R.slot list) ~idx:0

let list_advance rt ~list =
  R.load_field rt ~obj:(R.slot list) ~idx:1 ~dst:(R.to_slot list)

let list_length rt ~list ~cursor =
  R.move rt (R.slot list) (R.to_slot cursor);
  let n = ref 0 in
  while not (R.is_nil rt (R.slot cursor)) do
    incr n;
    list_advance rt ~list:cursor
  done;
  !n

let ptr_slots n = Array.make n Rstack.Trace.Ptr

let slots spec =
  Array.init (String.length spec) (fun i ->
    match spec.[i] with
    | 'p' -> Rstack.Trace.Ptr
    | 'i' -> Rstack.Trace.Non_ptr
    | c -> invalid_arg (Printf.sprintf "Dsl.slots: bad spec char %c" c))
