(** The open-loop server workload ([gc-serve]): thousands of sessions
    across configurable tenants, each tenant following one of three
    allocation-lifetime profiles (per-request arenas, session caches, a
    hot/cold archive mix), driven at a fixed request rate with
    coordinated-omission-safe latency accounting.

    Arrivals are an open-loop schedule — request [i] arrives at virtual
    time [i / rate] whether or not the server has kept up — and each
    request's measured service time (GC pauses included) is folded into
    that timeline, so a long pause is charged to every request queued
    behind it.  See the implementation header for the exact
    construction, and docs/SLO.md for how [gc-serve] pairs this with the
    online monitor and flight recorder.

    Deliberately {e not} in {!Registry.all}: the paper-table commands
    iterate that list, and this workload reports latencies, not paper
    rows. *)

(** One tenant's slice of the run. *)
type tenant_report = {
  tenant : int;
  kind : string;           (** "arena", "cache" or "archive" *)
  requests : int;
  p50_lat_us : float;      (** request latencies, nearest-rank *)
  p99_lat_us : float;
  p999_lat_us : float;
  max_lat_us : float;
  pauses : int;            (** collections attributed to this tenant's
                               requests (needs [?slo]) *)
  pause_us : float;
  p99_pause_us : float;    (** nearest-rank over the attributed pauses *)
  p999_pause_us : float;
}

type report = {
  tenants : tenant_report list;   (** one per tenant, in tenant order *)
  requests : int;
  horizon_us : float;        (** virtual completion horizon: when the
                                 last request finished on the open-loop
                                 timeline *)
  sustained_rps : float;     (** requests / horizon — equals the offered
                                 rate when the server keeps up *)
  offered_rps : float;
  checksum : int;            (** pure function of [seed]; identical
                                 across collector configurations *)
}

(** The most tenants a run takes: a request's tenant is recorded in 16
    bits (65,536). *)
val max_tenants : int

(** The most requests a run takes: every latency sits in one flat float
    array ([Sys.max_floatarray_length]). *)
val max_requests : int

(** [run rt ?slo ?phase_shift ~tenants ~sessions ~requests ~rate_rps
    ~seed ()] drives [requests] requests at [rate_rps] across [tenants]
    tenants of [sessions] sessions each.  Tenant [t]'s session table
    occupies global root [t], so the runtime needs
    [global_slots >= tenants].  With [?slo] attached (via
    [Trace.enable ~slo]), pause-count deltas attribute each collection
    to the tenant whose request triggered it.  [?phase_shift] (default
    [0] = never) rotates every tenant to the next lifetime profile from
    that request ordinal on — the behaviour-change scenario the adaptive
    control plane is measured against; the stream stays a pure function
    of [seed] and [phase_shift], so checksums compare across collector
    configurations at equal [phase_shift].

    The run keeps one latency (a float) and one 2-byte tenant tag per
    request, allocated before the first request, plus a 2-byte tag per
    attributed pause; the per-tenant reports are selected in place from
    them ({!Obs.Profile.group_percentiles}).
    @raise Invalid_argument unless [1 <= tenants <= max_tenants],
    [0 <= requests <= max_requests], [sessions >= 1], [rate_rps > 0] and
    [phase_shift >= 0]. *)
val run :
  Gsc.Runtime.t -> ?slo:Obs.Slo.t -> ?phase_shift:int -> tenants:int ->
  sessions:int -> requests:int -> rate_rps:float -> seed:int -> unit -> report
