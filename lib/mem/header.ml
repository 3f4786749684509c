type kind =
  | Record of { mask : int }
  | Ptr_array
  | Nonptr_array

type t = {
  kind : kind;
  len : int;
  site : int;
}

type layout = Classic | Packed

(* Classic word 0 encoding: [len lsl 6 | age lsl 3 | survivor lsl 2 | tag]
   with tag 0 = record, 1 = ptr array, 2 = nonptr array, 3 = forwarded;
   age is the 3-bit minor-collection survival counter used by aging
   nurseries.  Classic word 1 (non-forwarded): [mask lsl 20 | site]; word 2
   is the birth clock.

   Packed folds everything into ONE meta word (62 usable bits; header
   words are stored encoded as [(w lsl 1) lor 1]).  The low 6 bits keep
   the classic positions so tag/survivor/age accessors need no layout
   branch:

     bits  0-1   tag
     bit   2     survivor
     bits  3-5   age
     bits  6-25  site (20 bits)
     records:  bits 26-31 len (6 bits), bits 32-61 mask (30 bits)
     arrays:   bits 26-61 len (36 bits)

   A packed forwarded word abandons those fields (the object is a corpse;
   only its footprint must stay readable):

     bits  0-1   tag_forwarded
     bits  2-21  len (20 bits — keeps from-space sweeps walkable)
     bits 22-61  forwarding target, [Addr.encode_raw] (40 bits)

   The birth clock is an optional second word, present only when tracing
   or profiling needs per-object ages ({!set_layout}'s [birth] flag); a
   birth-less packed header is a single word.

   NOTE on sign extension: a stored word with meta bit 61 set occupies
   bit 62 of the OCaml int, so [cells.(off) asr 1] sign-extends.  Every
   top-field extraction therefore masks its result width. *)

let tag_record = 0
let tag_ptr_array = 1
let tag_nonptr_array = 2
let tag_forwarded = 3

let site_bits = 20
let max_site = (1 lsl site_bits) - 1

let packed_site_shift = 6
let packed_len_shift = 26
let packed_record_len_max = 30
let packed_mask_shift = 32
let packed_mask_max = (1 lsl 30) - 1
let packed_array_len_max = (1 lsl 36) - 1
let fwd_len_shift = 2
let fwd_len_max = (1 lsl 20) - 1
let fwd_target_shift = 22
let fwd_target_max = (1 lsl 40) - 1

(* Layout is process-global mutable state: it is set once per runtime
   (before any object exists) and only read from then on, including by
   the Real-engine worker domains, which are spawned after the set.
   [Config] lives above this module in the layering, so the knob is
   threaded down by [Runtime.create] (and directly by tests/bench). *)
let packed = ref false
let hw = ref 3
let birth_off = ref 2

let layout_header_words ?(birth = true) = function
  | Classic -> 3
  | Packed -> if birth then 2 else 1

let set_layout ?(birth = true) l =
  packed := l = Packed;
  hw := layout_header_words ~birth l;
  (* the birth word, when present, is the last header word *)
  birth_off := if l = Classic || birth then !hw - 1 else -1

let current_layout () = if !packed then Packed else Classic
let has_birth_word () = !birth_off >= 0
let header_words () = !hw
let max_record_fields () = if !packed then packed_record_len_max else 40

let object_words h = !hw + h.len
let payload_words h = h.len

let is_pointer_field h i =
  if i < 0 || i >= h.len then invalid_arg "Header.is_pointer_field";
  match h.kind with
  | Record { mask } -> mask land (1 lsl i) <> 0
  | Ptr_array -> true
  | Nonptr_array -> false

let tag_of_kind = function
  | Record _ -> tag_record
  | Ptr_array -> tag_ptr_array
  | Nonptr_array -> tag_nonptr_array

let mask_of_kind = function
  | Record { mask } -> mask
  | Ptr_array | Nonptr_array -> 0

(* the checks of [validate], on the header's fields; an array's mask is
   ignored (arrays store none) *)
let validate_fields ~tag ~len ~mask ~site =
  if len < 0 then invalid_arg "Header: negative length";
  if site < 0 || site > max_site then invalid_arg "Header: site out of range";
  if tag = tag_record then begin
    if len > max_record_fields () then invalid_arg "Header: record too large";
    if mask lsr len <> 0 then invalid_arg "Header: mask wider than record"
  end
  else if tag = tag_ptr_array || tag = tag_nonptr_array then begin
    if !packed && len > packed_array_len_max then
      invalid_arg "Header: array too large for packed layout"
  end
  else invalid_arg "Header: bad tag"

let validate h =
  validate_fields ~tag:(tag_of_kind h.kind) ~len:h.len ~mask:(mask_of_kind h.kind)
    ~site:h.site

(* --- cell-array accessors ---

   Decoding against an already-resolved block handle ({!Memory.cells}):
   no per-access block lookup, no [Value.t] boxing.  Header words are
   stored as encoded integers, so the stored word is [(w lsl 1) lor 1];
   [asr 1] recovers it (sign-extended — see the note above). *)

let word0_c cells ~off = cells.(off) asr 1

let tag_c cells ~off = word0_c cells ~off land 3

let len_c cells ~off =
  let w0 = word0_c cells ~off in
  if !packed then begin
    let tag = w0 land 3 in
    if tag = tag_forwarded then (w0 lsr fwd_len_shift) land fwd_len_max
    else if tag = tag_record then (w0 lsr packed_len_shift) land 63
    else (w0 lsr packed_len_shift) land packed_array_len_max
  end
  else w0 lsr 6

let object_words_c cells ~off = !hw + len_c cells ~off

let mask_c cells ~off =
  if !packed then (word0_c cells ~off lsr packed_mask_shift) land packed_mask_max
  else (cells.(off + 1) asr 1) lsr 20

let site_c cells ~off =
  if !packed then (word0_c cells ~off lsr packed_site_shift) land max_site
  else (cells.(off + 1) asr 1) land max_site

let birth_c cells ~off =
  let b = !birth_off in
  if b < 0 then 0 else cells.(off + b) asr 1

let is_forwarded_c cells ~off = tag_c cells ~off = tag_forwarded

let check_not_forwarded_c cells ~off =
  if is_forwarded_c cells ~off then invalid_arg "Header.read: forwarded object"

let is_pointer_field_c cells ~off i =
  let tag = tag_c cells ~off in
  if tag = tag_record then mask_c cells ~off land (1 lsl i) <> 0
  else tag = tag_ptr_array

(* classic: the forward word holds [Value.Ptr target], i.e. the raw
   address shifted left once; packed: the target lives in the meta word *)
let forward_target_c cells ~off =
  if !packed then
    Addr.decode_raw ((word0_c cells ~off lsr fwd_target_shift) land fwd_target_max)
  else Addr.decode_raw (cells.(off + 1) asr 1)

let set_forward_c cells ~off ~target =
  if !packed then begin
    let len = len_c cells ~off in
    let raw = Addr.encode_raw target in
    if len > fwd_len_max then
      invalid_arg "Header.set_forward_c: length exceeds packed forwarding range";
    if raw < 0 || raw > fwd_target_max then
      invalid_arg "Header.set_forward_c: target exceeds packed forwarding range";
    cells.(off) <-
      (((raw lsl fwd_target_shift) lor (len lsl fwd_len_shift) lor tag_forwarded)
       lsl 1)
      lor 1
  end
  else begin
    let w0 = word0_c cells ~off in
    cells.(off) <- (((w0 land lnot 3) lor tag_forwarded) lsl 1) lor 1;
    cells.(off + 1) <- Addr.encode_raw target lsl 1
  end

(* age and survivor sit at the same bit positions in both layouts *)
let age_c cells ~off = (word0_c cells ~off lsr 3) land 7

let set_age_c cells ~off n =
  let w0 = word0_c cells ~off in
  cells.(off) <- (((w0 land lnot (7 lsl 3)) lor (n lsl 3)) lsl 1) lor 1

let survivor_c cells ~off = word0_c cells ~off land 4 <> 0

let set_survivor_c cells ~off = cells.(off) <- cells.(off) lor (4 lsl 1)

let write_fields_c cells ~off ~tag ~len ~mask ~site ~birth =
  (if !packed then begin
     let hi =
       if tag = tag_record then
         (mask lsl packed_mask_shift) lor (len lsl packed_len_shift)
       else len lsl packed_len_shift
     in
     cells.(off) <- ((hi lor (site lsl packed_site_shift) lor tag) lsl 1) lor 1
   end
   else begin
     let extra = if tag = tag_record then mask else 0 in
     cells.(off) <- (((len lsl 6) lor tag) lsl 1) lor 1;
     cells.(off + 1) <- (((extra lsl 20) lor site) lsl 1) lor 1
   end);
  let b = !birth_off in
  if b >= 0 then cells.(off + b) <- (birth lsl 1) lor 1

(* a loop, not [Array.fill]: most payloads are a few words, below the
   cost of the C call *)
let init_object_c cells ~off ~tag ~len ~mask ~site ~birth =
  write_fields_c cells ~off ~tag ~len ~mask ~site ~birth;
  let first = off + !hw in
  for i = first to first + len - 1 do
    cells.(i) <- Value.encoded_zero
  done

let read_c cells ~off =
  let w0 = word0_c cells ~off in
  let tag = w0 land 3 in
  if tag = tag_forwarded then invalid_arg "Header.read_c: forwarded object";
  if !packed then begin
    let site = (w0 lsr packed_site_shift) land max_site in
    if tag = tag_record then
      { kind = Record { mask = (w0 lsr packed_mask_shift) land packed_mask_max };
        len = (w0 lsr packed_len_shift) land 63;
        site }
    else if tag = tag_ptr_array then
      { kind = Ptr_array; len = (w0 lsr packed_len_shift) land packed_array_len_max; site }
    else
      { kind = Nonptr_array;
        len = (w0 lsr packed_len_shift) land packed_array_len_max;
        site }
  end
  else begin
    let len = w0 lsr 6 in
    let w1 = cells.(off + 1) asr 1 in
    let site = w1 land max_site in
    if tag = tag_record then { kind = Record { mask = w1 lsr 20 }; len; site }
    else if tag = tag_ptr_array then { kind = Ptr_array; len; site }
    else { kind = Nonptr_array; len; site }
  end

(* --- safe (boxed) API: the same decodings through a resolved block --- *)

let write mem base h ~birth =
  validate h;
  write_fields_c (Memory.cells mem base) ~off:(Addr.offset base)
    ~tag:(tag_of_kind h.kind) ~len:h.len ~mask:(mask_of_kind h.kind)
    ~site:h.site ~birth

let read mem base =
  let cells = Memory.cells mem base and off = Addr.offset base in
  check_not_forwarded_c cells ~off;
  read_c cells ~off

let birth mem base =
  let cells = Memory.cells mem base and off = Addr.offset base in
  if is_forwarded_c cells ~off then invalid_arg "Header.birth: forwarded object";
  birth_c cells ~off

let forwarded mem base =
  let cells = Memory.cells mem base and off = Addr.offset base in
  if is_forwarded_c cells ~off then Some (forward_target_c cells ~off) else None

let set_forward mem base ~target =
  set_forward_c (Memory.cells mem base) ~off:(Addr.offset base) ~target

let field_addr base i = Addr.add base (!hw + i)

let object_words_at mem base =
  object_words_c (Memory.cells mem base) ~off:(Addr.offset base)

let max_age = 7

let age mem base = age_c (Memory.cells mem base) ~off:(Addr.offset base)

let set_age mem base n =
  if n < 0 || n > max_age then invalid_arg "Header.set_age";
  set_age_c (Memory.cells mem base) ~off:(Addr.offset base) n

let survivor mem base = survivor_c (Memory.cells mem base) ~off:(Addr.offset base)

let set_survivor mem base =
  set_survivor_c (Memory.cells mem base) ~off:(Addr.offset base)

(* --- filler pseudo-objects ---

   Parallel copying retires per-domain chunks with unused tails; a filler
   is a Nonptr_array carrying the reserved site id that pads such a tail
   so linear walks ([Space.iter_objects], card-crossing walks, from-space
   sweeps) still step object-to-object.  Fillers hold no mutator data and
   are skipped by the profiler's death sweep and the pretenured-region
   scan. *)

let filler_site = max_site

let is_filler_c cells ~off =
  tag_c cells ~off = tag_nonptr_array && site_c cells ~off = filler_site

let write_filler_c cells ~off ~words =
  if words < !hw then invalid_arg "Header.write_filler_c";
  let len = words - !hw in
  if !packed then begin
    cells.(off) <-
      (((len lsl packed_len_shift) lor (filler_site lsl packed_site_shift)
        lor tag_nonptr_array)
       lsl 1)
      lor 1;
    let b = !birth_off in
    if b >= 0 then cells.(off + b) <- 1 (* birth 0, encoded *)
  end
  else begin
    cells.(off) <- (((len lsl 6) lor tag_nonptr_array) lsl 1) lor 1;
    cells.(off + 1) <- (filler_site lsl 1) lor 1;
    cells.(off + 2) <- 1 (* birth 0, encoded *)
  end

let pp fmt h =
  let kind_s =
    match h.kind with
    | Record { mask } -> Printf.sprintf "record(mask=%#x)" mask
    | Ptr_array -> "ptr_array"
    | Nonptr_array -> "nonptr_array"
  in
  Format.fprintf fmt "{%s len=%d site=%d}" kind_s h.len h.site
