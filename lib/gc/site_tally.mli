(** Per-allocation-site tallies: the one structure behind every
    per-site row the collectors produce — objects allocated between
    collections, and objects one collection copied or marked.  Counting
    allocates nothing once a site has its row. *)

type t

val create : unit -> t

(** [note t ~site ~first ~words] counts one object of [words] words;
    [first] marks an object surviving its first collection. *)
val note : t -> site:int -> first:bool -> words:int -> unit

(** [merge tables] is a fresh table holding the site-by-site sums. *)
val merge : t list -> t

(** [(site, objects, firsts, words)] rows sorted by site. *)
val rows : t -> (int * int * int * int) list

(** Empty the table. *)
val clear : t -> unit
