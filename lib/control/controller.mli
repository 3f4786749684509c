(** The adaptive rule engine: the paper's Section 6 pretenuring rule
    applied online, per decision window, with band hysteresis and a
    per-site cooldown.

    The engine never runs on the mutator hot path: the collector feeds
    one {!obs} at the end of each collection ({!observe}), and every
    {!Params.t.window}-th observation closes a decision window and runs
    the rule pass.  Decisions are a pure function of the parameters, the
    knob state and the window's per-site counts — allocations,
    first-collection survivors and pretenured allocations, all integers,
    none of them timed — so the same seeded run always takes the same
    decisions, and feeding the same observation stream always yields the
    same decisions: that is the contract {!Replay} checks offline
    against the emitted [policy_update] records.

    {b Invariants} (pinned by the qcheck properties):
    - knob values are 0 or 1, and every decision flips its site's
      current value;
    - a site enabled at windowed survival at or above
      {!Params.t.cutoff_permille} and demoted below
      {!Params.t.demote_permille};
    - a site changed in window [w] cannot change again before window
      [w + cooldown + 1] — so it cannot reverse direction inside its
      cooldown either;
    - the decision list of a window is ordered by site, ascending. *)

(** One collection's per-site rows, as the trace carries them, which
    is what makes offline replay exact.  [o_survival] rows are
    [(site, objects, first_objects, words)]; [o_alloc] rows are
    [(site, objects, words)] — the deltas flushed at this collection's
    [gc_begin].  Row order is irrelevant (aggregation is keyed). *)
type obs = {
  o_survival : (int * int * int * int) list;
  o_alloc : (int * int * int) list;
}

(** One knob change; maps 1:1 onto a [policy_update] trace record.  The
    knob is ["pretenure_site:<id>"]. *)
type decision = {
  d_knob : string;
  d_old : int;
  d_new : int;
  d_window : int;
  d_signals : (string * int) list;  (** non-negative, integer-scaled *)
}

type t

(** [create p ~pretenured] seeds the knob state: [pretenured] lists the
    sites the static policy already routes old. *)
val create : Params.t -> pretenured:int list -> t

(** [note_pretenured t site] counts one object of [site] allocated
    tenured by fiat into the open window (one [pretenure] trace
    record). *)
val note_pretenured : t -> int -> unit

(** [observe t o] folds one collection into the open window.  Returns
    [] until the window closes, then the window's decisions — already
    applied to the knob state — in their deterministic order. *)
val observe : t -> obs -> decision list

(** [pretenured t site] is the site's current dynamic routing. *)
val pretenured : t -> int -> bool

(** [site_of_knob knob] is the site id a decision's knob names. *)
val site_of_knob : string -> int
