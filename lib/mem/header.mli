(** Object headers.

    TIL represents heap objects as records (with a compile-time pointer
    mask), pointer arrays and non-pointer arrays; the profiling build also
    prepends an allocation-site identifier to every object (Section 6 of
    the paper).  Two layouts fold both into a fixed-size header
    ({!set_layout}; see docs/LAYOUT.md for the bit-field maps):

    - {b Classic} (the default, three words):
      word 0 holds kind and payload length (or the forwarding tag),
      word 1 the allocation-site id and, for records, the pointer mask
      (or the forwarding target), and word 2 the birth clock — the value
      of the allocation byte counter when the object was created; the
      profiler uses it to compute ages.

    - {b Packed} (one meta word, plus an optional birth word): tag, len,
      site, mask, age and survivor share a single word with fixed bit
      fields, so every collector visit decodes one memory read instead of
      up to three.  Forwarding reuses the same word (tag + length +
      target).  The birth word is present only when tracing/profiling
      needs per-object ages.

    Records carry at most {!max_record_fields} fields so that the mask
    fits next to the other fields (40 classic, 30 packed). *)

type kind =
  | Record of { mask : int }  (** bit [i] set iff field [i] is a pointer *)
  | Ptr_array                 (** every element is a pointer *)
  | Nonptr_array              (** no element is a pointer *)

type t = {
  kind : kind;
  len : int;   (** number of payload fields / elements *)
  site : int;  (** allocation-site identifier *)
}

(** The process-global header layout (see the module comment). *)
type layout = Classic | Packed

(** [set_layout ?birth l] installs layout [l] for all subsequently
    created objects.  [birth] (default [true]) controls whether Packed
    headers carry the birth-clock word; Classic always does.  Must be
    called before any object exists — runtimes set it in
    [Runtime.create], before the first allocation; it is only read
    afterwards (including by Real-engine worker domains, which spawn
    after the set). *)
val set_layout : ?birth:bool -> layout -> unit

val current_layout : unit -> layout

(** Whether the current layout stores a per-object birth word.  When
    [false], {!birth} and [birth_c] return 0. *)
val has_birth_word : unit -> bool

(** Words of header preceding the payload: 3 (Classic), 2 (Packed with
    birth) or 1 (Packed without). *)
val header_words : unit -> int

(** [layout_header_words ?birth l] is what {!header_words} returns once
    [set_layout ?birth l] is installed. *)
val layout_header_words : ?birth:bool -> layout -> int

(** Layout-dependent: 40 (Classic), 30 (Packed — the mask shares the
    meta word). *)
val max_record_fields : unit -> int

val max_site : int

(** Total footprint of an object with this header, in words. *)
val object_words : t -> int

(** [payload_words h] is [h.len]. *)
val payload_words : t -> int

(** [is_pointer_field h i] tells whether payload slot [i] must be traced.
    @raise Invalid_argument if [i] is outside the payload. *)
val is_pointer_field : t -> int -> bool

(** [write mem base h ~birth] stores the header at [base]. *)
val write : Memory.t -> Addr.t -> t -> birth:int -> unit

(** [read mem base] decodes a header.
    @raise Invalid_argument if [base] holds a forwarding pointer. *)
val read : Memory.t -> Addr.t -> t

(** [birth mem base] reads the birth clock of a (non-forwarded) object
    (0 when the layout drops the birth word). *)
val birth : Memory.t -> Addr.t -> int

(** The survivor bit records that the object has already been copied once
    (promoted out of the nursery, or evacuated by a semispace collection);
    the profiler uses it to count first survivals exactly once. *)
val survivor : Memory.t -> Addr.t -> bool

val set_survivor : Memory.t -> Addr.t -> unit

(** The age counter: how many minor collections the object has survived
    while staying in the nursery (aging-nursery tenuring policies;
    Section 7.2 of the paper: "Counter bits within each object record
    the number of minor collections the object has survived").  Capped
    at {!max_age}. *)
val max_age : int

val age : Memory.t -> Addr.t -> int

val set_age : Memory.t -> Addr.t -> int -> unit

(** [forwarded mem base] is the forwarding target installed by a copying
    collection, if any. *)
val forwarded : Memory.t -> Addr.t -> Addr.t option

(** [set_forward mem base ~target] overwrites the header with a forwarding
    pointer to [target].
    @raise Invalid_argument under the Packed layout if the object's
    length or [target] exceeds the forwarding word's field widths
    (lengths up to 2^20-1 words and targets up to 2^40-1 raw; block ids
    are reused by {!Memory}, so real targets stay far below the cap —
    the check makes an overflow loud instead of corrupting). *)
val set_forward : Memory.t -> Addr.t -> target:Addr.t -> unit

(** [field_addr base i] is the address of payload slot [i] of the object at
    [base]. *)
val field_addr : Addr.t -> int -> Addr.t

(** [object_words_at mem base] is the total footprint of the object at
    [base], valid even when the object has been forwarded (from-space
    sweeps need to step over corpses). *)
val object_words_at : Memory.t -> Addr.t -> int

val pp : Format.formatter -> t -> unit

(** {2 Cell-array accessors}

    The collector hot loops resolve an object's block once
    ({!Memory.cells}) and then decode header words straight from the
    cell array; [off] is the object base's {!Addr.offset}.  Each
    function mirrors its safe counterpart above; none allocates except
    {!read_c} (which builds the [t] record — hot per-object paths use
    the scalar accessors instead). *)

(** Header word-0 tags, exposed so scans can branch on [tag_c] without
    building a [kind]. *)
val tag_record : int

val tag_ptr_array : int
val tag_nonptr_array : int
val tag_forwarded : int

val tag_c : int array -> off:int -> int

(** [len_c] is valid on forwarded objects too (both layouts keep the
    length readable so corpses stay walkable). *)
val len_c : int array -> off:int -> int

(** [object_words_c] is valid on forwarded objects too, like
    {!object_words_at}. *)
val object_words_c : int array -> off:int -> int

(** [mask_c]/[site_c]/[birth_c] are meaningful only on non-forwarded
    objects ([mask_c] additionally only on records; [birth_c] is 0 when
    the layout drops the birth word). *)
val mask_c : int array -> off:int -> int

val site_c : int array -> off:int -> int
val birth_c : int array -> off:int -> int
val is_forwarded_c : int array -> off:int -> bool

(** [forward_target_c] is meaningful only when [is_forwarded_c]. *)
val forward_target_c : int array -> off:int -> Addr.t

val set_forward_c : int array -> off:int -> target:Addr.t -> unit
val age_c : int array -> off:int -> int

(** [set_age_c] does not range-check; callers clamp to {!max_age}. *)
val set_age_c : int array -> off:int -> int -> unit

val survivor_c : int array -> off:int -> bool
val set_survivor_c : int array -> off:int -> unit

(** [write_c cells ~off h ~birth] stores the header through a resolved
    block handle (the cell twin of {!write}). *)
val write_c : int array -> off:int -> t -> birth:int -> unit

(** [read_c cells ~off] decodes a full header record.
    @raise Invalid_argument if the object is forwarded. *)
val read_c : int array -> off:int -> t

(** {2 Filler pseudo-objects}

    A parallel copier retires per-domain to-space chunks whose tails may
    be unused; fillers pad those tails so the space stays linearly
    walkable.  A filler is a [Nonptr_array] whose site id is the reserved
    {!filler_site} ([= max_site]); real allocation sites are expected to
    stay below it.  Fillers are invisible to the mutator (nothing points
    at them) and skipped by the profiler's death sweep and the
    pretenured-region scan. *)

(** The reserved allocation-site id that marks fillers. *)
val filler_site : int

val is_filler_c : int array -> off:int -> bool

(** [write_filler_c cells ~off ~words] writes a filler spanning exactly
    [words] cells ([words >= header_words ()] — under the birth-less
    Packed layout a filler can be a single word). *)
val write_filler_c : int array -> off:int -> words:int -> unit
