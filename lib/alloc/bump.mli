(** Frontier-only backend: the behaviour the collectors had before
    backends existed.  [free] writes a filler and counts the words dead
    but never reuses them, so allocation order and placement are
    bit-for-bit those of raw {!Mem.Space} bumping.

    Because frees are terminal here, a collector that relies on reuse
    degenerates: the mark-sweep major over a bump tenured backend
    compacts (via the copying major) at every full collection —
    mark-compact by construction (docs/COLLECTORS.md). *)

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

(** [frag_into] reports freed-but-unreusable words: the waste a reusing
    backend would recover. *)
val frag_into : t -> Backend.frag -> unit

val destroy : t -> unit

(** This backend packed for uniform dispatch. *)
val backend : t -> Backend.packed
