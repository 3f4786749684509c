(** The trace table: return-address-keyed frame descriptors.

    In TIL the compiler emits one entry per call site, keyed by the return
    address.  Simulated functions register their frame layout here once at
    start-up and use the returned key as the "return address" of every
    frame they push. *)

type entry = {
  name : string;                       (** diagnostic label *)
  slots : Trace.slot_trace array;      (** one per stack slot *)
  regs : Trace.reg_trace array;        (** length {!Trace.num_registers} *)
}

type t

val create : unit -> t

(** [register t entry] returns the entry's key.  Slot indices referenced by
    [Callee_save]/[Compute] traces are validated against the frame size.
    @raise Invalid_argument on malformed entries. *)
val register : t -> entry -> int

(** [lookup t key] finds the entry for a return-address key.
    @raise Invalid_argument on an unknown key. *)
val lookup : t -> int -> entry

(** [reg_status_after t key status] is the register pointer status after
    a frame of entry [key], given the caller-side [status]: bit [r] of a
    status is set iff register [r] holds a pointer.  [Reg_ptr] sets the
    bit, [Reg_non_ptr] clears it and [Reg_callee_save] keeps the
    caller's; both masks are precomputed at {!register}.
    @raise Invalid_argument on an unknown key. *)
val reg_status_after : t -> int -> int -> int

val size : t -> int

(** [entry_of_regs ()] is an all-[Reg_non_ptr] register descriptor, the
    common case for functions that keep everything in stack slots. *)
val plain_regs : unit -> Trace.reg_trace array

(** [pp_entry] renders an entry in the style of the paper's Figure 1. *)
val pp_entry : key:int -> Format.formatter -> entry -> unit
