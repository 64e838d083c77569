(** Online invariant monitors for chaos runs.

    A monitor audits one executed {!Msgpass.Runs.Config.t} — its run
    record and the private metric registry the execution recorded into —
    and reports at most one {!violation}.  Monitors are pure in the
    (config, run, metrics) triple, so re-executing a config reproduces
    its violation exactly; that is what makes the corpus replayable. *)

type violation = {
  monitor : string;
      (** which invariant failed: ["linearizability"],
          ["termination/stalled"], ["termination/budget"],
          ["quorum-sanity"] or ["recovery-sanity"] *)
  detail : string;  (** human-readable specifics *)
}

val violation_json : violation -> Obs.Json.t
(** [{"kind":"violation","monitor":…,"detail":…}]. *)

val violation_of_json : Obs.Json.t -> (violation, string) result

type t = {
  name : string;
  check :
    config:Msgpass.Runs.Config.t ->
    run:Msgpass.Runs.run ->
    metrics:Obs.Metrics.t ->
    violation option;
}

val linearizability : t
(** The run's projected history passes {!Linchk.Lincheck.check}.  Applies
    to incomplete runs too (pending operations are handled exactly). *)

val termination : t
(** The run completed within its step budget and the watchdog never
    fired.  Reports as ["termination/stalled"] (with the structured
    watchdog diagnostic rendered) or ["termination/budget"] — two names,
    so the shrinker cannot silently trade one failure mode for the
    other. *)

val quorum_sanity : t
(** Every quorum round waited for enough replies to guarantee
    intersection ([2*need > n]), audited from the [reg.*.quorum.need]
    histogram.  Catches the test-only [quorum] override of
    {!Msgpass.Abd.create} even on schedules where the history happens to
    linearize anyway. *)

val recovery_sanity : t
(** No replica rejoined quorums after losing acknowledged state: the
    [reg.*.amnesia] counter (bumped by an [unsafe_recovery] restart whose
    crash dropped un-persisted records, see {!Msgpass.Abd.recover_node})
    must stay 0.  Catches the test-only [unsafe_recovery + `Never] bug
    even on schedules where the history happens to linearize anyway. *)

val standard : t list
(** [linearizability; termination; quorum_sanity; recovery_sanity], in
    that order: the one list that every search, shrink, replay and
    post-mortem audits. *)

val run_config :
  ?telemetry:Obs.Metrics.t ->
  ?tracer:Obs.Tracer.t ->
  Msgpass.Runs.Config.t ->
  violation option
(** Execute the config against a fresh private registry and return the
    first violation of the {!standard} monitors, in their order.  The
    private registry is merged into [telemetry] afterwards when given, so
    parallel searches can aggregate without polluting the monitors'
    per-run view.  An armed [tracer] (default {!Obs.Tracer.null})
    receives the run's scheduler/network/register events.
    Deterministic in the config. *)

val postmortem :
  Msgpass.Runs.Config.t ->
  (violation * Obs.Tracer.event list) option
(** Re-execute the config with an armed flight recorder of capacity 200
    and return the violation together with the last events the ring
    retained — the causal post-mortem attached to corpus entries.
    [None] if no monitor trips (e.g. after a fix).  Sequential and
    deterministic: same config, same events, byte-for-byte. *)
