(** Offline decision replay: re-derive the adaptive control plane's
    decisions from a trace, bit-for-bit.

    The online controller only ever reads counts that the tracer also
    serialises (per-site survival and allocation deltas, pretenure
    routings), so folding a fully-traced run through a fresh
    {!Controller} with the same {!Params.t} and initial knob state must
    reproduce every [policy_update] record exactly — the online
    analogue of the offline pretenuring pipeline's fixed-point test.

    Replay needs a detailed trace (channel or buffer sink): flight-ring
    recordings skip the per-site data plane, so decisions that read it
    cannot be re-derived from a ring dump. *)

(** [of_lines params ~pretenured lines] validates every line against
    {!Obs.Schema} and folds the collections, in trace order, through a
    fresh controller seeded with the given initially pretenured sites.
    Returns the derived decisions paired with the collection ordinal
    each followed, or [Error "line N: ..."] on the first invalid
    line. *)
val of_lines :
  Params.t -> pretenured:int list -> string list ->
  ((int * Controller.decision) list, string) result

val of_file :
  Params.t -> pretenured:int list -> string ->
  ((int * Controller.decision) list, string) result

(** [verify ~derived ~traced] checks the derived decisions against the
    [policy_update] records folded from the same trace
    ({!Obs.Profile.t.policy_updates}): same count, same order, and every
    field equal — collection ordinal, window, knob, old/new value and
    signal list.  [Ok n] is the number of decisions matched; [Error]
    pinpoints the first divergence. *)
val verify :
  derived:(int * Controller.decision) list ->
  traced:Obs.Profile.policy_row list -> (int, string) result
