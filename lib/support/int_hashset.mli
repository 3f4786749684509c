(** Mutable sets of non-negative integers in an open-addressing hash
    table, for keys seen once per object (the heap walk's encoded
    addresses).  An insertion
    allocates nothing unless it fills the table past half, which
    doubles it. *)

type t

val create : unit -> t

(** [add t key] inserts [key] and says whether it was absent.
    @raise Invalid_argument on a negative key. *)
val add : t -> int -> bool
