(** Per-allocation-site tallies: the one structure behind every
    per-site row the collectors produce — objects allocated between
    collections, objects one collection copied or marked, and objects
    one collection found dead.

    A table is a flat array indexed by site id, grown on demand up to
    {!Mem.Header.max_site}, plus the list of sites it has a row for.
    Once it has grown past a site, counting that site neither hashes
    nor allocates, reading the rows in site order allocates nothing
    (the list is sorted in place), and {!clear} zeroes only the rows
    that were used. *)

type t

val create : unit -> t

(** A table with no rows, for a collector that keeps none.  It takes
    none either: noting into it raises [Invalid_argument]. *)
val empty : t

(** [note t ~site ~first ~words] counts one object of [words] words;
    [first] marks an object surviving its first collection.  The
    row's sum adds [words].
    @raise Invalid_argument on a site outside [0, Header.max_site]. *)
val note : t -> site:int -> first:bool -> words:int -> unit

(** [note_death t ~site ~birth] counts one dead object born at
    allocation-clock time [birth].  The row's sum adds [birth], so a
    death table's row is [(objects, 0, Σ birth)]: when nothing
    allocates between the deaths and the moment [now] they are
    charged at, their ages sum to [objects · now − Σ birth]. *)
val note_death : t -> site:int -> birth:int -> unit

(** Number of rows (sites counted since the last {!clear}). *)
val length : t -> int

(** [site t i] is the site of the [i]-th row in ascending site order,
    [0 <= i < length t]. *)
val site : t -> int -> int

(** The columns of [site]'s row; [0] for a site without one. *)
val objects : t -> int -> int

val firsts : t -> int -> int
val sum : t -> int -> int

(** [iter t f] calls [f] on every row in ascending site order. *)
val iter :
  t -> (site:int -> objects:int -> firsts:int -> sum:int -> unit) -> unit

(** [(site, objects, firsts, sum)] rows sorted by site. *)
val rows : t -> (int * int * int * int) list

(** [merge tables] is a fresh table holding the site-by-site sums. *)
val merge : t list -> t

(** Empty the table, keeping its size. *)
val clear : t -> unit

(** [fit ~width cells site] is [cells] when it holds row [site] of a
    flat per-site table with [width] columns per site, else a copy of
    it grown to hold the row: at least 64 rows, at least twice as many
    as before, at most {!Mem.Header.max_site}[ + 1].  The growth rule of
    every such table, {!t}'s own among them.
    @raise Invalid_argument on a site outside [0, Header.max_site]. *)
val fit : width:int -> int array -> int -> int array
