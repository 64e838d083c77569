(** Randomized chaos search over run configurations.

    Samples (workload × fault plan × crash schedule × scheduler policy)
    configurations from a seed, executes each against the online
    {!Monitor}s, and delta-debugs every violation down to a minimal
    reproducer.  The whole report is a deterministic function of
    [(seed, budget)]: per-index config generation uses a SplitMix-style
    stride, the parallel phase runs under the {!Simkit.Pool} determinism
    contract, and shrinking is sequential in index order — so [-j 1] and
    [-j N] produce byte-identical reports. *)

(** Self-test fault injections proving the search → shrink → corpus loop
    catches real protocol bugs:
    - [Quorum_too_small]: configs whose [quorum] override is
      [majority - 1], breaking quorum intersection (E12);
    - [Unsafe_recovery]: configs pairing every crash with a recovery
      under [persist = `Never] and [unsafe_recovery = true], so a
      restarted replica rejoins quorums with rolled-back state (E14,
      caught by {!Monitor.recovery_sanity}). *)
type bug = Quorum_too_small | Unsafe_recovery

val gen_config :
  ?inject:bug -> seed:int64 -> int -> Msgpass.Runs.Config.t
(** The [index]-th config of stream [seed]; always {!Msgpass.Runs.Config.validate}-clean.
    Probabilities stay on the lower {!Simkit.Faults.prob_ladder} rungs,
    crash schedules are strict minorities of non-client nodes, and each
    crashed node may draw a paired later recovery (clean searches use
    the safe state-transfer handshake, so recoveries never trip a
    monitor on healthy code). *)

type finding = {
  index : int;  (** which sampled config *)
  original : Msgpass.Runs.Config.t;
  first : Monitor.violation;  (** as found, pre-shrink *)
  shrunk : Shrink.outcome;  (** the minimal reproducer *)
  postmortem : Obs.Tracer.event list;
      (** last-K flight-recorder events of a sequential re-execution of
          the shrunk config ([flight:true]); [[]] with the recorder off *)
}

type report = { seed : int64; budget : int; findings : finding list }

val search :
  ?jobs:int ->
  ?inject:bug ->
  ?flight:bool ->
  ?telemetry:Obs.Metrics.t ->
  seed:int64 ->
  budget:int ->
  unit ->
  report
(** Execute configs [0..budget-1] on [jobs] domains (default 1), shrink
    every violation (at most 400 oracle executions each, see
    {!Shrink.minimize}).  Per-run metrics are folded into [telemetry] in
    index order when given.  Reports stay byte-identical at every [jobs]
    value.

    With [flight:true] every finding's shrunk config is re-executed
    sequentially under an armed flight recorder of capacity 200 (see
    {!Monitor.postmortem}) and the retained events are attached.  The
    re-executions happen after the parallel phase and are deterministic,
    so reports and corpora stay byte-identical across [-j] values.
    @raise Invalid_argument if [budget < 0]. *)

val to_entries : report -> Corpus.entry list
(** The findings as corpus entries (minimal config + violation +
    pre-shrink original + flight-recorder post-mortem when recorded). *)

val report_json : report -> Obs.Json.t
(** [{"kind":"chaos_report",…}] — carries no wall-clock or job-count
    fields, so reports from different [-j] runs diff clean.  Each finding
    reports its [postmortem_events] count; the events themselves live in
    the corpus entries. *)
