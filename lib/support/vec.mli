(** Growable arrays ("vectors").

    OCaml 5.1 does not yet ship [Dynarray]; this is the small subset the
    runtime needs: amortised O(1) push/pop at the end, O(1) random access,
    truncation.  Used for handler stacks, free-id lists and various work
    lists; buffers of immediate words (store buffers, gray stacks) use
    {!Int_vec}, whose push is a plain store. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool

(** [get v i] raises [Invalid_argument] unless [0 <= i < length v]. *)
val get : 'a t -> int -> 'a

val set : 'a t -> int -> 'a -> unit
val push : 'a t -> 'a -> unit

(** [pop v] removes and returns the last element.
    @raise Invalid_argument if [v] is empty. *)
val pop : 'a t -> 'a

(** [top v] returns the last element without removing it.
    @raise Invalid_argument if [v] is empty. *)
val top : 'a t -> 'a

(** [truncate v n] drops elements so that exactly [min n (length v)]
    remain. *)
val truncate : 'a t -> int -> unit

val clear : 'a t -> unit
val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val to_list : 'a t -> 'a list
val of_list : 'a list -> 'a t
val exists : ('a -> bool) -> 'a t -> bool
