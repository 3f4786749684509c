(** Cached per-frame scan results.

    Decoding a frame is the expensive part of root processing: walking its
    trace-table entry, resolving callee-save chains and computing dynamic
    pointerness.  The cache stores, for every frame depth scanned last
    time, the frame's serial, the decoded root slot indexes and the
    register pointer status *after* that frame, so a later scan can
    resume pass two from an arbitrary prefix boundary.

    The store is flat: per-frame serials, status masks and slot-range
    ends in int arrays, every frame's root slot indexes back to back in
    one more.  A scan truncates it at the valid prefix and appends the
    frames it decodes, so a warm cache allocates nothing. *)

type t

val create : unit -> t

(** Number of cached frames. *)
val length : t -> int

(** [serial t i] is the birth stamp of the frame cached at index [i]. *)
val serial : t -> int -> int

(** [reg_status_after t i] is the register pointer status after frame
    [i], as a bitmask ({!Trace_table.reg_status_after}). *)
val reg_status_after : t -> int -> int

(** Frame [i]'s root slot indexes are [slot t k] for
    [slots_start t i <= k < slots_stop t i], in slot order. *)
val slots_start : t -> int -> int

val slots_stop : t -> int -> int
val slot : t -> int -> int

(** The per-frame accessors above raise [Invalid_argument] unless
    [0 <= i < length t]. *)

(** [truncate t n] forgets frames at indexes [>= n], and any slot
    appended after the last {!add_frame}. *)
val truncate : t -> int -> unit

(** [add_slot t s] appends root slot [s] to the frame being recorded;
    {!add_frame} closes that frame at index [length t]. *)
val add_slot : t -> int -> unit

val add_frame : t -> serial:int -> reg_status:int -> unit
