(** The simulated general-purpose register file.  Registers hold
    encoded words, like frame slots ({!Stack_.words}). *)

type t

val create : unit -> t

(** [get t r] / [set t r v] access register [r].
    @raise Invalid_argument unless [0 <= r < Trace.num_registers]. *)
val get : t -> int -> Mem.Value.t

val set : t -> int -> Mem.Value.t -> unit

(** {!get}/{!set} on the encoded word, with the same checks. *)
val get_word : t -> int -> int

val set_word : t -> int -> int -> unit

(** [cells t] is the register file itself, indexed by register: the
    cells a stack scan reports as register roots. *)
val cells : t -> int array

(** [clear t] resets every register to [Int 0] (e.g. between workload
    runs). *)
val clear : t -> unit
