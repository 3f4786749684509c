(** First-fit free-list backend: freed grants go to an address-ordered
    hole list ({!Holes}) with eager coalescing; allocation scans it
    before falling back to the frontier.  With no frees it is
    placement-identical to {!Bump}.

    This is the backend that makes the mark-sweep major's holes fully
    load-bearing: coalesced holes can serve promotion and pretenure
    requests of any size that fits, so it defers compactions the other
    policies cannot (docs/COLLECTORS.md). *)

type t

(** Wrap one externally-owned space; {!destroy} does not release it. *)
val of_space : Mem.Memory.t -> Mem.Space.t -> t

(** Own a growable segment list; {!destroy} releases it. *)
val growable : Mem.Memory.t -> segment_words:int -> t

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
