(** Growable vectors of unboxed floats: a push stores the float in a
    flat array, so a sample per request costs no host allocation beyond
    the amortised doubling. *)

type t

val create : unit -> t
val push : t -> float -> unit

(** The elements, in push order. *)
val to_array : t -> float array
