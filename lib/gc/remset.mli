(** A deduplicating remembered set, the card-marking stand-in.

    The paper suggests card marking (Sobalvarro 1988) would remove most of
    Peg's barrier-processing overhead, because repeated mutation of the
    same few locations then costs one mark instead of one buffer entry per
    store.  We model the same effect at object granularity: a mutated
    object is remembered once, and the collector scans each remembered
    object's pointer fields once per collection.  This preserves the
    property being studied — barrier processing cost proportional to the
    number of *distinct* mutated objects, not to the number of stores. *)

type t

(** An empty remembered set. *)
val create : unit -> t

(** [record t obj] remembers the object containing a mutated slot (its
    base address).  Duplicates are absorbed. *)
val record : t -> Mem.Addr.t -> unit

(** Distinct objects currently remembered. *)
val length : t -> int

(** Total record calls ever made (mutator-side barrier traffic). *)
val total_recorded : t -> int

(** [drain t f env] applies [f env] to each distinct remembered object,
    clearing the set first so objects recorded by [f] itself stay
    remembered. *)
val drain : t -> ('a -> Mem.Addr.t -> unit) -> 'a -> unit

(** Forget every remembered object without processing it. *)
val clear : t -> unit
