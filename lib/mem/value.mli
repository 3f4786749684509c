(** Simulated machine words.

    TIL is nearly tag-free: an integer is a raw word and a pointer is a raw
    word; only the trace tables and object headers tell them apart.  The
    simulation keeps the distinction in the value representation so that
    collector invariants (e.g. "this root really is a pointer") can be
    checked at every step, which a raw-word runtime cannot do. *)

type t =
  | Int of int          (** an unboxed integer (or raw non-pointer bits) *)
  | Ptr of Addr.t       (** a pointer to a simulated heap object *)

(** The null pointer, [Ptr Addr.null]. *)
val null : t

(** [zero] is [Int 0], the default content of fresh memory. *)
val zero : t

val is_ptr : t -> bool

(** [to_addr v] extracts a (non-null) address.
    @raise Invalid_argument if [v] is an [Int] or the null pointer. *)
val to_addr : t -> Addr.t

(** [to_int v] extracts an integer. @raise Invalid_argument on pointers. *)
val to_int : t -> int

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** Packed single-int encoding, used by {!Memory} so that simulated heap
    cells are unboxed host ints: integers carry a low tag bit of 1,
    pointers of 0 (pointer payloads, including the null address -1, fit in
    the remaining 62 bits). *)

val encode : t -> int
val decode : int -> t

(** {2 Raw-word views}

    The collector hot loops (see [DESIGN.md], "Hot-path architecture")
    operate on encoded words directly so that no [t] is allocated per
    field touched.  Every function below is equivalent to [encode]/
    [decode] composed with the corresponding safe operation. *)

(** [encode zero]: the content of fresh memory. *)
val encoded_zero : int

(** [encode null]. *)
val encoded_null : int

(** [encoded_is_int w] iff [decode w] is an [Int _]. *)
val encoded_is_int : int -> bool

(** [encoded_is_ptr w] iff [decode w] is a non-null pointer (mirrors
    {!is_ptr}, not the constructor test). *)
val encoded_is_ptr : int -> bool

(** [encoded_to_int w] is the integer payload; meaningful only when
    [encoded_is_int w].  No check is performed. *)
val encoded_to_int : int -> int

(** [decode_int w] is [to_int (decode w)] without building the [t]:
    @raise Invalid_argument as {!to_int} does when [w] is a pointer. *)
val decode_int : int -> int

(** [encoded_to_addr w] is the address payload; meaningful only when
    [encoded_is_ptr w].  No check is performed. *)
val encoded_to_addr : int -> Addr.t

val encode_int : int -> int
val encode_addr : Addr.t -> int

