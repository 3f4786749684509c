(** Stack markers (Section 5 of the paper).

    At every collection the collector overwrites the return address of
    every [n]-th frame with a stub.  When one of those frames returns
    normally, the stub runs and records that the frame — and hence
    everything that was above it — is gone.  Exceptions bypass return
    addresses entirely, so every raise updates a watermark [M], the
    shallowest depth an unwind reached since the last collection.  The
    reusable prefix of the previous scan is then

      [min (deepest unfired marker, M, depth at last scan - 1)].

    The [- 1] excludes the frame that was executing at the previous
    collection: being active, its slots may have changed without any pop.

    Depths here count frames from the stack bottom, i.e. a prefix of
    length [d] means frames with indices [0 .. d-1]. *)

type t

(** [create ~n] uses marker spacing [n] (the paper uses 25).
    @raise Invalid_argument if [n <= 0]. *)
val create : n:int -> t

val spacing : t -> int

(** [place t stack] is called at each collection, after scanning: it sets
    the marker bit ({!Stack_.set_mark}) of the frame at every [n]-th
    depth, records those depths, clears the fired set and
    resets the watermark.  Returns the number of marks newly installed
    (bookkeeping cost charged to the collector, not the mutator). *)
val place : t -> Stack_.t -> int

(** [frame_popped t ~marked ~depth] must be called on every normal pop,
    where [depth] is the stack depth just before the pop (i.e. the popped
    frame had index [depth - 1]) and [marked] the popped frame's marker
    bit ({!Stack_.pop}).  If the frame was marked, its stub fires and the
    reusable prefix shrinks. *)
val frame_popped : t -> marked:bool -> depth:int -> unit

(** [exception_unwound t ~target_depth] lowers the watermark [M] after an
    exception unwound the stack down to [target_depth] frames. *)
val exception_unwound : t -> target_depth:int -> unit

(** [valid_prefix t] is the number of bottom frames guaranteed unchanged
    since the last [place]. *)
val valid_prefix : t -> int

(** Number of stub activations since creation (the mutator-side cost of
    the technique). *)
val stub_hits : t -> int

(** Forget everything (used when a collector is reconfigured). *)
val reset : t -> unit
