(** Address-ordered free-hole list with coalescing — the reuse engine
    behind {!Free_list} and the oversize path of {!Size_class}.

    Every hole is covered by exactly one {!Mem.Header} filler spanning
    its full extent, so the region stays linearly walkable whatever the
    backends do.  Coalescing happens on {!insert}: a hole contiguous
    with its address-order neighbour (same memory block) merges with it
    and the merged extent is re-covered by one filler. *)

type t

val create : Mem.Memory.t -> t

(** [insert t base ~words] returns [words >= Mem.Header.header_words]
    words at [base] to the list, coalescing with adjacent holes and
    writing the covering filler. *)
val insert : t -> Mem.Addr.t -> words:int -> unit

(** [take_first_fit t words] grants [words] from the first (lowest
    address) hole that fits under the remainder rule — remainder [0] or
    [>= Mem.Header.header_words].  The grant comes from the hole's
    start; a remainder stays listed and re-covered.  {!Mem.Addr.null}
    when no hole fits. *)
val take_first_fit : t -> int -> Mem.Addr.t

val free_words : t -> int
val count : t -> int

(** Largest single hole, [0] when empty. *)
val largest : t -> int

(** Drop all holes without touching memory (used when the underlying
    region is being discarded wholesale). *)
val clear : t -> unit
