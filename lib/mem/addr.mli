(** Simulated word addresses.

    The simulated heap is a set of blocks (see {!Memory}); an address packs
    a block identifier and a word offset within that block.  Addresses are
    totally ordered within a block; ordering across blocks follows block
    identifiers and is only meaningful for container keys.

    The packing leaves 30 bits for the offset (1 Gword per block, far above
    anything the experiments use) and the rest for the block id.

    The representation is an unboxed integer and the type says so: a
    store of an address into a mutable field or array is a plain word
    store, not a write-barrier call. *)

type t [@@immediate]

(** The distinguished null address ("no object"). *)
val null : t

val is_null : t -> bool

(** [make ~block ~offset] packs an address.
    @raise Invalid_argument on a negative block or an offset outside
    [\[0, 2{^30})]. *)
val make : block:int -> offset:int -> t

val block : t -> int
val offset : t -> int

(** [add a n] is the address [n] words past [a] (same block); [n] may be
    negative.  @raise Invalid_argument if the result offset is negative. *)
val add : t -> int -> t

(** [unsafe_add a n] is [add a n] without the range check: because the
    offset occupies the low bits, stepping within a block is a plain
    integer add.  Only for scan cursors that are known to stay inside the
    block (object walks bounded by a space frontier); stepping past the
    offset field silently corrupts the block id. *)
val unsafe_add : t -> int -> t

(** [diff a b] is the word distance [a - b].
    @raise Invalid_argument if [a] and [b] are in different blocks. *)
val diff : t -> t -> int

val equal : t -> t -> bool
val compare : t -> t -> int

(** Raw integer view, for {!Value}'s packed encoding and the collectors'
    [Support.Int_vec] address buffers only. *)
val encode_raw : t -> int

val decode_raw : int -> t
val hash : t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string
