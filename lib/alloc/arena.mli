(** The segment substrate shared by every backend: a set of
    {!Mem.Space} bump segments, either one fixed externally-owned space
    or a growable owned list.

    Invariant inherited from {!Mem.Space}: each segment is linearly
    walkable from base to frontier; words beyond a frontier are never
    visited, so a growable arena may abandon a segment tail when it
    opens the next segment. *)

type t

(** [of_space mem space] wraps one externally-owned space.  The arena
    never grows and {!destroy} does not release the space. *)
val of_space : Mem.Memory.t -> Mem.Space.t -> t

(** [growable mem ~segment_words] starts empty and opens
    [max segment_words request] segments on demand; {!destroy} releases
    them. *)
val growable : Mem.Memory.t -> segment_words:int -> t

val mem : t -> Mem.Memory.t

(** Frontier bump from the newest segment; {!Mem.Addr.null} only when a
    fixed arena is full. *)
val alloc : t -> int -> Mem.Addr.t

val contains : t -> Mem.Addr.t -> bool

(** Words below the frontier, all segments summed (live + holes). *)
val used_words : t -> int

(** Walk all segments oldest-first, objects and fillers alike. *)
val iter_objects : t -> (Mem.Addr.t -> unit) -> unit

val destroy : t -> unit
