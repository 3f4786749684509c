(** The simulated activation-record stack.

    Frames are indexed from the bottom: index 0 is the initial frame, index
    [depth - 1] the currently executing one.  Only the top frame's slots
    may be written by the mutator (a real function cannot write into its
    callers' frames); the collector updates arbitrary slots through
    {!Root}.

    (Named [Stack_] to avoid shadowing [Stdlib.Stack].) *)

type t

val create : Trace_table.t -> t

val table : t -> Trace_table.t
val depth : t -> int

(** [push t ~key entry] pushes a frame of [key] sized per [entry] —
    [key]'s trace-table entry ({!Trace_table.lookup}), which the caller
    has looked up once for its own checks — stamped with the next
    serial.  Pointer-traced and callee-save slots start as null
    pointers, other slots as zero. *)
val push : t -> key:int -> Trace_table.entry -> Frame.t

(** [pop t] removes and returns the top frame.
    @raise Invalid_argument on an empty stack. *)
val pop : t -> Frame.t

(** [top t] is the currently executing frame. *)
val top : t -> Frame.t

(** [frame_at t i] is the frame at bottom-based index [i]. *)
val frame_at : t -> int -> Frame.t

(** [unwind_to t ~depth] pops frames until exactly [depth] remain, without
    any per-frame processing — this models an exception transferring
    control past intervening frames (their stack-marker stubs never run). *)
val unwind_to : t -> depth:int -> unit

(** [next_serial t] is the serial the next pushed frame will receive. *)
val next_serial : t -> int

(** [count_new_frames t ~since_serial] counts frames with a serial
    strictly greater than [since_serial] (Table 2's "New Frames in
    Stack"). *)
val count_new_frames : t -> since_serial:int -> int

(** Lifetime high-water mark of the stack depth. *)
val max_depth : t -> int
