type entry = {
  base : Mem.Addr.t;
  words : int;
  mutable marked : bool;
}

type t = {
  mem : Mem.Memory.t;
  backend : Alloc.Backend.packed;
  objects : (Mem.Addr.t, entry) Hashtbl.t; (* base address -> entry *)
  mutable live_words : int;
}

let default_segment_words = 4096

let create ?(backend = Alloc.Backend.Free_list) mem =
  {
    mem;
    backend =
      Alloc.Registry.growable backend mem ~segment_words:default_segment_words;
    objects = Hashtbl.create 64;
    live_words = 0;
  }

let alloc t ~tag ~len ~mask ~site ~birth =
  let words = Mem.Header.header_words () + len in
  let base = Alloc.Backend.alloc t.backend words in
  if Mem.Addr.is_null base then
    failwith "Los.alloc: growable backend refused a grant";
  (* reused holes carry stale payloads; fresh segments are zeroed, but
     zero unconditionally so placement cannot leak through contents *)
  Mem.Header.init_object_c (Mem.Memory.cells t.mem base)
    ~off:(Mem.Addr.offset base) ~tag ~len ~mask ~site ~birth;
  Hashtbl.replace t.objects base { base; words; marked = false };
  t.live_words <- t.live_words + words;
  base

let contains t addr =
  (not (Mem.Addr.is_null addr)) && Hashtbl.mem t.objects addr

let mark t addr =
  match Hashtbl.find_opt t.objects addr with
  | None -> invalid_arg "Los.mark: not a large object"
  | Some e ->
    if e.marked then false
    else begin
      e.marked <- true;
      true
    end

let sweep t ~deaths =
  let dead = ref [] in
  Hashtbl.iter
    (fun _ e -> if e.marked then e.marked <- false else dead := e :: !dead)
    t.objects;
  List.fold_left
    (fun freed e ->
      (match deaths with
       | None -> ()
       | Some deaths ->
         let cells = Mem.Memory.cells t.mem e.base in
         let off = Mem.Addr.offset e.base in
         Site_tally.note_death deaths ~site:(Mem.Header.site_c cells ~off)
           ~birth:(Mem.Header.birth_c cells ~off));
      Alloc.Backend.free t.backend e.base ~words:e.words;
      Hashtbl.remove t.objects e.base;
      t.live_words <- t.live_words - e.words;
      freed + e.words)
    0 !dead

let live_words t = t.live_words

let object_count t = Hashtbl.length t.objects

let iter t f = Hashtbl.iter (fun _ e -> f e.base) t.objects

let backend_name t = Alloc.Backend.name t.backend

let frag t = Alloc.Backend.frag t.backend
let frag_into t f = Alloc.Backend.frag_into t.backend f

let destroy t =
  Alloc.Backend.destroy t.backend;
  Hashtbl.reset t.objects;
  t.live_words <- 0
