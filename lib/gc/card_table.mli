(** A card-marking write barrier (Sobalvarro 1988), the mechanism the
    paper suggests for Peg's pathological update rate.

    The old generation is divided into fixed-size cards.  A pointer store
    sets one bit — O(1), no buffer growth, duplicate stores hit the same
    bit.  At collection time the collector scans only the marked cards;
    the crossing map records, for every card, where the first object
    whose scan must begin lies (the last object start at or before the
    card boundary), so scanning can start mid-heap without walking from
    the base.

    The crossing map is maintained by [cover]: after any contiguous range
    of the space gains objects (promotion, pretenured allocation), the
    collector walks just that range once. *)

type t

(** Words per card. *)
val card_words : int

(** [create ~space_words] covers a space of the given size. *)
val create : space_words:int -> t

(** [record t ~offset] marks the card containing the word at [offset]
    (relative to the space base). *)
val record : t -> offset:int -> unit

(** [cover t ~offset ~words] enters the object of [words] words at
    [offset] in the crossing map.  A run of objects laid out back to back
    is covered by one call per object, in address order. *)
val cover : t -> offset:int -> words:int -> unit

(** [marked_cards t] returns the indexes of marked cards, ascending. *)
val marked_cards : t -> int list

(** [drain_marked t f] clears every mark, then applies [f] to each card
    that was marked, ascending, without building a list, and returns the
    number of cards visited.  Marks set by [f] itself are not visited and
    stay set for the next drain. *)
val drain_marked : t -> (int -> unit) -> int

(** [card_lo t card] is the first word of the card's window. *)
val card_lo : t -> int -> int

(** [card_hi t card] is the end (exclusive) of the card's window,
    clipped to the covered prefix of the space, so the window is empty
    when [card_hi t card <= card_lo t card]. *)
val card_hi : t -> int -> int

(** [crossing t card] is the offset of the first object whose scan covers
    the card, or [-1] when nothing covers it yet. *)
val crossing : t -> int -> int

(** Clear all card marks (after a collection processed them). *)
val clear_marks : t -> unit

(** Forget the crossing map (the space was rebuilt by a major
    collection); marks are cleared too. *)
val reset : t -> unit

(** Total marks ever recorded (barrier traffic). *)
val total_recorded : t -> int

(** Number of currently marked cards. *)
val marked_count : t -> int
