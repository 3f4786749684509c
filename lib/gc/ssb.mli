(** The sequential store buffer (Appel 1989): the simple write barrier of
    Section 2.1.

    Every pointer update appends the mutated heap location — including
    duplicates, which is exactly the weakness the paper observes on Peg
    ("the simple sequential store list records a mutated site repeatedly,
    causing a great overhead in root processing"). *)

type t

(** An empty buffer, with room for 256 entries before it grows. *)
val create : unit -> t

(** [record t loc] logs a mutated location. *)
val record : t -> Mem.Addr.t -> unit

(** Entries currently buffered (duplicates included). *)
val length : t -> int

(** Total entries ever recorded. *)
val total_recorded : t -> int

(** [drain t f env] applies [f env] to every location buffered when
    it starts and removes them; locations recorded by [f] itself
    (re-remembered edges) stay buffered for the next collection.  With
    a toplevel [f], the drain allocates nothing while the buffer has
    room. *)
val drain : t -> ('a -> Mem.Addr.t -> unit) -> 'a -> unit

(** Drop every buffered entry without processing it. *)
val clear : t -> unit
