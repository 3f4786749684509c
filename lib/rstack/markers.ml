type t = {
  n : int;
  depths : int Support.Vec.t;   (* unfired marker depths, ascending *)
  mutable scan_depth : int;     (* stack depth at the last [place] *)
  mutable watermark : int;      (* M: shallowest depth reached by raises *)
  mutable stub_hits : int;
  mutable placed_any : bool;
}

let create ~n =
  if n <= 0 then invalid_arg "Markers.create";
  { n;
    depths = Support.Vec.create ();
    scan_depth = 0;
    watermark = max_int;
    stub_hits = 0;
    placed_any = false }

let spacing t = t.n

let place t stack =
  Support.Vec.clear t.depths;
  t.scan_depth <- Stack_.depth stack;
  t.watermark <- max_int;
  t.placed_any <- true;
  let installed = ref 0 in
  let d = ref t.n in
  while !d <= t.scan_depth do
    if not (Stack_.mark_at stack (!d - 1)) then begin
      Stack_.set_mark stack (!d - 1);
      incr installed
    end;
    Support.Vec.push t.depths !d;
    d := !d + t.n
  done;
  !installed

let frame_popped t ~marked ~depth =
  if marked then begin
    t.stub_hits <- t.stub_hits + 1;
    (* every marker at this depth or deeper is gone: markers above [depth]
       already fired (or were destroyed by an unwind covered by M), and
       the table only ever shrinks from the top *)
    while (not (Support.Vec.is_empty t.depths)) && Support.Vec.top t.depths >= depth do
      ignore (Support.Vec.pop t.depths : int)
    done
  end

let exception_unwound t ~target_depth =
  t.watermark <- min t.watermark target_depth;
  (* markers above the unwind target were destroyed without firing; their
     guarantee is void, so the deepest-unfired bound must fall back to the
     deepest marker that actually survived *)
  while
    (not (Support.Vec.is_empty t.depths))
    && Support.Vec.top t.depths > target_depth
  do
    ignore (Support.Vec.pop t.depths : int)
  done

let valid_prefix t =
  if not t.placed_any then 0
  else begin
    let deepest_unfired =
      if Support.Vec.is_empty t.depths then 0 else Support.Vec.top t.depths
    in
    (* An unfired marker at depth m proves frames 1..m-1 untouched: to pop
       any of them, frame m must pop first and fire the stub.  Frame m
       itself may have *resumed* (everything above it returned) and
       mutated its slots without any pop of its own, so it is excluded —
       and likewise the frame an exception handler resumed into (depth M)
       and the frame active at the previous scan. *)
    max 0
      (min (deepest_unfired - 1)
         (min (t.watermark - 1) (t.scan_depth - 1)))
  end

let stub_hits t = t.stub_hits

let reset t =
  Support.Vec.clear t.depths;
  t.scan_depth <- 0;
  t.watermark <- max_int;
  t.placed_any <- false
