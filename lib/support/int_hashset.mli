(** Mutable sets of non-negative integers in an open-addressing hash
    table, for the keys a profiling run sees once per object or per
    pointer store (site pairs, encoded addresses).  An insertion
    allocates nothing unless it fills the table past half, which
    doubles it. *)

type t

val create : unit -> t

(** [add t key] inserts [key] and says whether it was absent.
    @raise Invalid_argument on a negative key. *)
val add : t -> int -> bool

(** [iter t f] calls [f] on every key, in no particular order. *)
val iter : t -> (int -> unit) -> unit
