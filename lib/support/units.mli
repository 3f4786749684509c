(** Formatting helpers for byte counts, times and percentages, used by the
    harness tables and the profiler reports. *)

(** [bytes n] renders [n] bytes with a binary-unit suffix, e.g. ["16KB"],
    ["3.4MB"], matching the style of the paper's tables. *)
val bytes : int -> string

(** [seconds s] renders a duration with two decimal places, e.g. ["8.07"]. *)
val seconds : float -> string

(** [percent x] renders a ratio [x] in [0,1] as a percentage with two
    decimals, e.g. ["76.09%"]. *)
val percent : float -> string

(** [int_thousands n] renders an integer without separators (the paper uses
    plain digit runs in its tables). *)
val int_plain : int -> string

(** [ratio a b] is [a /. b] guarding against a zero denominator. *)
val ratio : float -> float -> float

(** [now_ns ()] is the host wall clock in integer nanoseconds (backed by
    [Unix.gettimeofday], {e not} [Sys.time]): per-process CPU time
    double-counts concurrent domains, so wall-clock measurements of the
    real-domain drain must subtract two [now_ns] readings.  Only
    differences are meaningful; the epoch is unspecified.  The
    resolution is 1 us, that of [Unix.gettimeofday]: an interval
    shorter than that (a mutation-workload minor lasts about 1.1 us)
    reads 0 or 1000, so every [*_ns] timer summed over many intervals is
    a sum of microsecond-quantised readings, unbiased only on
    average. *)
val now_ns : unit -> int
