(** One activation record.

    A frame carries the trace-table key that plays the role of its return
    address, its slot contents, and the stack-marker state: when the
    collector marks a frame it conceptually swaps the return address for a
    stub; we model that with the [marked] flag.  The [serial] is a
    monotonically increasing birth stamp used to count frames that are new
    since the previous collection (Table 2's "New Frames in Stack") and to
    sanity-check scan-cache reuse.

    Slots hold encoded words ({!Mem.Value.encode}), the encoding of heap
    cells, so a root is simply a cell of [slots] and the collector
    forwards it in place with no [Value.t] built. *)

type t = {
  key : int;                   (** trace-table key ("return address") *)
  slots : int array;           (** encoded words *)
  serial : int;
  mutable marked : bool;       (** a stack-marker stub is installed *)
}

(** [create ~key ~size ~serial] makes a frame with all slots [Int 0]. *)
val create : key:int -> size:int -> serial:int -> t

(** [get t i] / [set t i v] decode and encode at the edge.
    @raise Invalid_argument unless [0 <= i < size t]. *)
val get : t -> int -> Mem.Value.t

val set : t -> int -> Mem.Value.t -> unit

(** [get_word]/[set_word] are {!get}/{!set} on the encoded word, with
    the same checks and messages. *)
val get_word : t -> int -> int

val set_word : t -> int -> int -> unit
val size : t -> int
