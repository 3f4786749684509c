(** Workload descriptors.

    Each of the paper's eleven benchmarks (Table 1) is re-implemented as a
    real computation against the simulated runtime.  A workload registers
    its own trace-table entries and allocation sites on the runtime it is
    given, runs, and verifies its own answer (raising on a wrong result,
    so every harness run doubles as a correctness check of the runtime). *)

type t = {
  name : string;
  description : string;         (** after the paper's Table 1 *)
  paper_lines : int;            (** source size reported in Table 1 *)
  default_scale : int;          (** problem-size knob; see DESIGN.md §7 *)
  scale_range : int * int;
      (** the smallest and largest scale [run] accepts, inclusive
          ([max_int]: no upper bound); outside it [run] raises or its
          self-check fails *)
  run : Gsc.Runtime.t -> scale:int -> unit;
}

(** [run_default t rt] runs at the default scale. *)
val run_default : t -> Gsc.Runtime.t -> unit

(** [accepts t scale]: [scale] lies in [t.scale_range]. *)
val accepts : t -> int -> bool
