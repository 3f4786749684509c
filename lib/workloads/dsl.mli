(** Small helpers shared by the workloads.

    Simulated cons cells are two-field records; by convention field 0 is
    the head and field 1 the tail.  All helpers follow the runtime's
    rooting discipline: list heads live in frame slots, and every
    intermediate value is re-read from its slot after a potential
    collection. *)

module R = Gsc.Runtime

(** [cons_int rt ~site ~head ~list v] prepends integer [v]:
    [list := Cons (v, list)] where [list] names a slot of the current
    frame. *)
val cons_int : R.t -> site:int -> list:int -> int -> unit

(** [cons_ptr rt ~site ~head_slot ~list] prepends the pointer held in
    slot [head_slot]. *)
val cons_ptr : R.t -> site:int -> head_slot:int -> list:int -> unit

(** [list_head_int rt ~list] reads the integer head of a non-empty
    list. *)
val list_head_int : R.t -> list:int -> int

(** [list_advance rt ~list] replaces the slot's pointer by the tail. *)
val list_advance : R.t -> list:int -> unit

(** [list_length rt ~list ~cursor] computes the length, clobbering the
    [cursor] slot. *)
val list_length : R.t -> list:int -> cursor:int -> int

(** Trace shorthand: [ptr_slots n] is [n] pointer slots;
    [slots spec] builds an array from a string where 'p' is a pointer
    slot and 'i' a non-pointer slot (e.g. [slots "ppi"]). *)
val ptr_slots : int -> Rstack.Trace.slot_trace array

val slots : string -> Rstack.Trace.slot_trace array
