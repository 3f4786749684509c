type t = {
  mem : Mem.Memory.t;
  mutable segments : Mem.Space.t list;  (* newest first *)
  segment_words : int;                  (* 0 = fixed: never grow *)
  owns : bool;
}

let of_space mem space =
  { mem; segments = [ space ]; segment_words = 0; owns = false }

let growable mem ~segment_words =
  if segment_words <= 0 then invalid_arg "Arena.growable";
  { mem; segments = []; segment_words; owns = true }

let mem t = t.mem

(* Bump from the newest segment; a growable arena opens a fresh segment
   on a miss.  The abandoned tail of the previous segment sits beyond
   its frontier, which no walk ever visits, so no filler is needed. *)
let alloc t words =
  if words <= 0 then invalid_arg "Arena.alloc";
  match t.segments with
  | seg :: _ when Mem.Space.free_words seg >= words -> Mem.Space.grant seg words
  | _ ->
    if t.segment_words = 0 then Mem.Addr.null
    else begin
      let seg =
        Mem.Space.create t.mem ~words:(max t.segment_words words)
      in
      t.segments <- seg :: t.segments;
      Mem.Space.grant seg words
    end

let contains t addr =
  List.exists (fun seg -> Mem.Space.contains seg addr) t.segments

let used_words t =
  List.fold_left (fun acc seg -> acc + Mem.Space.used_words seg) 0 t.segments

let iter_objects t f =
  List.iter
    (fun seg -> Mem.Space.iter_objects seg t.mem f)
    (List.rev t.segments)

let destroy t =
  if t.owns then List.iter (fun seg -> Mem.Space.release seg t.mem) t.segments;
  t.segments <- []
