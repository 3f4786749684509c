(** Segregated-fit backend: per-class free lists for small grants (O(1)
    free, no coalescing inside a class), a coalescing oversize list for
    grants wider than the top class, frontier fallback otherwise.

    The class ladder is in object words, header included, ascending,
    with every class at least [Mem.Header.header_words].  Default:
    [4; 8; 16; 32; 64; 128; 256].  Grants are still exact ({!Backend}):
    a bucketed hole wider than the request is split and its remainder
    re-freed, possibly into a smaller class. *)

type t

val default_classes : int list

(** Wrap one externally-owned space; {!destroy} does not release it.
    @raise Invalid_argument on an empty, non-ascending or
    below-[header_words] class ladder. *)
val of_space : ?classes:int list -> Mem.Memory.t -> Mem.Space.t -> t

(** Own a growable segment list; {!destroy} releases it.
    @raise Invalid_argument on an invalid class ladder. *)
val growable : ?classes:int list -> Mem.Memory.t -> segment_words:int -> t

(** Operations as specified by {!Backend.S}. *)

val alloc : t -> int -> Mem.Addr.t
val free : t -> Mem.Addr.t -> words:int -> unit
val contains : t -> Mem.Addr.t -> bool
val iter_objects : t -> (Mem.Addr.t -> unit) -> unit
val live_words : t -> int
val frag_into : t -> Backend.frag -> unit
val destroy : t -> unit

(** This backend packed for uniform dispatch. *)
val backend : t -> Backend.packed
