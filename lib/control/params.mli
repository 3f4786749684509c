(** Tuning bounds and rule thresholds for the adaptive control plane.

    One immutable record, fixed for the whole run: the rule engine
    ({!Controller}) is a pure function of these parameters, the knob
    state and the aggregated window, which is what makes its decisions
    replayable offline ({!Replay}).  Every compared quantity is an
    integer count or a permille rate, so there is no float-threshold
    nondeterminism between the online and offline evaluations. *)

type t = {
  window : int;         (** collections per decision window (K) *)
  cooldown : int;       (** windows a knob stays untouchable after a
                            change; also rules out direction reversal
                            inside the cooldown, structurally *)
  cutoff_permille : int;
      (** windowed survival at or above this enables pretenuring for a
          site — the paper's 0.8 cutoff as 800 *)
  demote_permille : int;    (** survival below this disables it again *)
  min_site_objects : int;
      (** sites with fewer windowed allocations are never judged *)
}

(** [default ()] is the collector's parameters: window 4, cooldown 1,
    cutoff 800‰, demote 400‰, 32 objects. *)
val default : ?window:int -> ?cooldown:int -> unit -> t
