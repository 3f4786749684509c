(** Root locations.

    A root is a *location* holding a pointer, not the pointer itself: a
    copying collector must be able to update the location after moving the
    referent.  Every root location — a frame slot, a register, a global
    or the exception cell — is a cell of an [int array] holding an
    encoded word ({!Mem.Value.encode}), so a root is that cell.  A frame
    slot is a cell of the stack's one words array ({!Stack_.words}),
    which a push may replace with a larger copy: a root is valid only
    within the collection that gathered it. *)

type t = {
  cells : int array;
  index : int;
}

(** A growable buffer of roots, so pushing a root allocates nothing
    once the buffer has grown to the stack's size.  Consecutive roots
    from one cell array form a run that stores the array once, so a
    push stores only an integer index unless it starts a run.  A collector owns one and reuses it across collections: the
    stack scan and the global enumeration fill it, the copy or mark
    engine reads and rewrites each cell in place.  A cleared buffer may
    still reference the arrays it held, but never reads them again. *)
module Buf : sig
  type t

  val create : unit -> t

  (** [clear b] empties [b], keeping its capacity. *)
  val clear : t -> unit

  val length : t -> int

  (** [push b cells i] appends the root at [cells.(i)]. *)
  val push : t -> int array -> int -> unit

  (** [iter b f env] calls [f env cells i] for every root [cells.(i)],
      in push order.  Passing the state as [env] rather than in a
      closure lets a collector visit its roots without allocating: [f]
      is a toplevel function such as an engine's root visitor. *)
  val iter : t -> ('a -> int array -> int -> unit) -> 'a -> unit
end

(** Fixed-capacity root batching, the export format the parallel drain
    consumes: collectors push roots one at a time, and [emit] receives
    freshly-allocated parallel arrays of at most [capacity] roots (the
    cells and their indexes) — each pair becomes one work packet.  The
    final partial batch must be released with {!Batch.flush} before the
    drain runs. *)
module Batch : sig
  type t

  (** [create ~capacity ~emit] batches roots into arrays of [capacity].
      @raise Invalid_argument if [capacity <= 0]. *)
  val create :
    capacity:int -> emit:(int array array -> int array -> unit) -> t

  (** [push b cells i] adds the root at [cells.(i)]. *)
  val push : t -> int array -> int -> unit

  (** [flush b] emits the pending partial batch, if any. *)
  val flush : t -> unit
end
