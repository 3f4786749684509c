(** Growable arrays of [int]s: {!Vec} for immediate elements (encoded
    words, addresses in their raw view).  A push is a plain
    store into an [int array], with no write-barrier call. *)

type t

(** [create ?capacity ()] is an empty vector with room for [capacity]
    elements (default 0) before it grows.
    @raise Invalid_argument on a negative capacity. *)
val create : ?capacity:int -> unit -> t

val length : t -> int
val is_empty : t -> bool

(** [get v i] raises [Invalid_argument] unless [0 <= i < length v]. *)
val get : t -> int -> int

(** [set v i x]: as {!get}. *)
val set : t -> int -> int -> unit

(** [push v x] appends [x], doubling the storage when it is full. *)
val push : t -> int -> unit

(** [pop v] removes and returns the last element.
    @raise Invalid_argument if [v] is empty. *)
val pop : t -> int

(** [truncate v n] drops elements so that exactly [min n (length v)]
    remain. *)
val truncate : t -> int -> unit

val clear : t -> unit
