(** The simulated activation-record stack.

    One region, as in the paper: every frame's slots lie back to back in
    one growable [int array] of encoded words ({!Mem.Value.encode}), the
    bottom frame first, and a frame is its base offset into it.  Parallel
    per-depth arrays hold each frame's trace-table key (its "return
    address"), base, serial and marker bit.  The [serial] is a
    monotonically increasing birth stamp used to count frames that are
    new since the previous collection (Table 2's "New Frames in Stack")
    and to sanity-check scan-cache reuse; the marker bit models the stub
    a stack marker swaps in for the return address (Section 5).

    Frames are indexed from the bottom: index 0 is the initial frame,
    index [depth - 1] the currently executing one.  Only the top frame's
    slots may be written by the mutator (a real function cannot write
    into its callers' frames); the collector updates arbitrary slots
    through {!Root}, a root being the cell [(words t, base_at t i + s)].

    Pushing may replace the words array with a larger copy, so a root
    cell is valid only until the next push: no root may outlive the
    collection that gathered it.

    (Named [Stack_] to avoid shadowing [Stdlib.Stack].) *)

type t

val create : Trace_table.t -> t

val table : t -> Trace_table.t
val depth : t -> int

(** [push t ~key entry] pushes a frame of [key] sized per [entry] —
    [key]'s trace-table entry ({!Trace_table.lookup}), which the caller
    has looked up once for its own checks — stamped with the next serial
    and unmarked.  Every slot is written: pointer-traced and callee-save
    slots start as null pointers, other slots as zero, whatever a popped
    frame left there.  Allocates only when the stack outgrows its
    arrays. *)
val push : t -> key:int -> Trace_table.entry -> unit

(** [pop t] removes the top frame and returns its marker bit.
    @raise Invalid_argument on an empty stack. *)
val pop : t -> bool

(** [unwind_to t ~depth] pops frames until exactly [depth] remain, without
    any per-frame processing — this models an exception transferring
    control past intervening frames (their stack-marker stubs never run). *)
val unwind_to : t -> depth:int -> unit

(** {1 The top frame's slots} *)

(** [get_word t i] / [set_word t i w] read and write slot [i] of the top
    frame, as an encoded word.
    @raise Invalid_argument ["Frame.get"] / ["Frame.set"] unless
    [0 <= i < size_at t (depth t - 1)] (always, on an empty stack). *)
val get_word : t -> int -> int

val set_word : t -> int -> int -> unit

(** {!get_word}/{!set_word} decoding and encoding at the edge, with the
    same checks and messages. *)
val get : t -> int -> Mem.Value.t

val set : t -> int -> Mem.Value.t -> unit

(** {1 Frames by depth} *)

(** [words t] is the array every frame's slots live in, valid until the
    next {!push}. *)
val words : t -> int array

(** The readers below raise [Invalid_argument] unless
    [0 <= i < depth t]. *)

val key_at : t -> int -> int

(** [base_at t i] is the offset of frame [i]'s slot 0 in {!words}. *)
val base_at : t -> int -> int

val size_at : t -> int -> int
val serial_at : t -> int -> int

(** [mark_at t i] is frame [i]'s marker bit; [set_mark t i] sets it (the
    collector installing a stub).  {!push} clears it. *)
val mark_at : t -> int -> bool

val set_mark : t -> int -> unit

(** [next_serial t] is the serial the next pushed frame will receive. *)
val next_serial : t -> int

(** [count_new_frames t ~since_serial] counts frames with a serial
    strictly greater than [since_serial] (Table 2's "New Frames in
    Stack"). *)
val count_new_frames : t -> since_serial:int -> int

(** Lifetime high-water mark of the stack depth. *)
val max_depth : t -> int
