(** Named metric registries: monotone counters, gauges and histograms.

    Instrumented code (the scheduler, the network, the checkers, the
    registers) records into a registry by metric name; analysis code reads
    it back as a {!snapshot}.  A process-wide {!global} registry is the
    default sink — experiment drivers measure a workload by taking a
    snapshot before and after and computing the {!delta}, so concurrent
    accumulation from unrelated code is harmless.

    Metric names are dot-separated paths ([sched.steps], [linchk.states],
    [net.sends], [span.e1.wall_ms]); see DESIGN.md "Observability" for the
    catalogue. *)

type t
(** A registry. *)

val max_buckets : int
(** Upper bound on a histogram's bucket array (3,072 ints).  Histograms
    are log-linear: 32 sub-buckets per power of two, so the integers
    0..63 are exact and any other quantile is reported at most 1/32 below
    the exact order statistic, while count/sum/min/max stay exact.
    Samples [<= 0] share one zero bucket.  The array is sized lazily to
    the octaves actually seen, and NaN, infinities and magnitudes below
    2^-32 or from 2^64 up go to the edge buckets, so no sample grows it
    past this bound. *)

val create : unit -> t

val global : t
(** The default process-wide registry; every instrumented component
    records here unless given another registry explicitly. *)

val reset : t -> unit
(** Drop every metric (used by tests to isolate measurements). *)

(** {2 Recording} *)

val incr : ?by:int -> t -> string -> unit
(** Bump a monotone counter (created at 0 on first use).
    @raise Invalid_argument if [by < 0] — counters only go up. *)

val set_gauge : t -> string -> float -> unit
(** Set a gauge to its current value (e.g. messages in flight). *)

val observe : t -> string -> float -> unit
(** Add one sample to a histogram (e.g. a latency in simulated steps). *)

(** {2 Handles — the allocation-free recording path}

    The string API above hashes the metric name on every recording; that
    is fine for per-run events but dominates checker inner loops (one
    DFS state = one [incr]).  A handle resolves the name once and pins
    the metric's interior cell: [incr_h] is a bare [ref] bump, no
    hashing, no allocation.  Handles alias the cells the string API
    updates — both paths hit the same counter, and {!merge},
    {!snapshot}/{!delta} and the per-run-registry isolation of
    [Simkit.Pool.fold_runs] are oblivious to which path recorded.

    Resolve handles at component construction or checker entry — never
    per event (that would re-pay the lookup the handle exists to avoid).
    {!reset} empties the name tables and thereby detaches live handles
    (their bumps land in orphaned cells): re-resolve after a reset.
    See DESIGN.md "hot-path discipline". *)

module Counter : sig
  type t
end

module Gauge : sig
  type t
end

module Hist : sig
  type t
end

val counter_h : t -> string -> Counter.t
(** Resolve (creating at 0 if absent) a counter handle. *)

val incr_h : ?by:int -> Counter.t -> unit
(** Bump through a handle.
    @raise Invalid_argument if [by < 0]. *)

val read_h : Counter.t -> int
(** Current value through a handle — a bare dereference, cheap enough for
    periodic probes inside checker inner loops. *)

val gauge_h : t -> string -> Gauge.t
(** Resolve a gauge handle.  Does {e not} create the gauge: a gauge
    appears in snapshots only once set (there is no neutral value), so
    the cell is bound on the first {!set_gauge_h}. *)

val set_gauge_h : Gauge.t -> float -> unit

val set_gauge_int_h : Gauge.t -> int -> unit
(** [set_gauge_int_h g n] sets [g] to [float_of_int n].  The gauge's
    cell holds its float unboxed, so this allocates nothing; the float
    argument of {!set_gauge_h} is boxed by any caller that cannot inline
    it. *)

val hist_h : t -> string -> Hist.t
(** Resolve (creating empty if absent) a histogram handle.  An empty
    histogram is invisible to {!snapshot} until its first sample. *)

val observe_h : Hist.t -> float -> unit

val merge : into:t -> t -> unit
(** [merge ~into src] folds [src] into [into] as if every recording made
    into [src] had been made into [into] instead, in the same order:
    counters add, gauges overwrite, histograms add bucket by bucket
    (count, min, max and every bucket exact).
    The parallel run harness ({!Simkit.Pool.fold_runs}) gives each run a
    private registry and folds each one, in run order, as soon as every
    earlier run has finished, so the merged registry
    — and hence any snapshot {!delta} over it — is independent of the
    degree of parallelism.  [src] is left untouched. *)

(** {2 Reading} *)

val counter : t -> string -> int
(** Current counter value; 0 if never incremented. *)

val gauge : t -> string -> float option

type summary = {
  count : int;  (** samples seen *)
  sum : float;
  min : float;
  max : float;
  mean : float;
  p50 : float;
  p90 : float;
  p95 : float;
  p99 : float;
      (** Quantiles over every sample: the sample of 0-based rank
          [round (q *. float (count - 1))], reported as the lower edge of
          its bucket clamped into [\[min, max\]] — exact for integers
          0..63, otherwise at most 1/32 below the exact value (see
          {!max_buckets}). *)
}

val summary : t -> string -> summary option
(** Summary of a histogram; [None] if it has no samples. *)

type counts
(** A copy of one histogram's bucket counts. *)

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * summary) list;
  counts : (string * counts) list;
      (** the histograms' bucket counts, for {!delta}'s window quantiles *)
}
(** All three families and the bucket counts, each sorted by name. *)

val snapshot : t -> snapshot

val delta : before:snapshot -> after:snapshot -> (string * float) list
(** The change between two snapshots, as flat name/value pairs suitable
    for an experiment report: counter increments (only those [> 0]),
    gauges at their [after] value (only those set or changed), and for
    each histogram the sample-count increment as [name ^ ".n"], the mean
    over the new samples as [name ^ ".mean"], and the quantiles of the new
    samples alone, from the after-minus-before bucket counts, as
    [name ^ ".p50"/".p95"/".p99"].  Sorted by name. *)

val pp : Format.formatter -> t -> unit
(** A human-readable table of the whole registry. *)
