(** Algorithm 3 of the paper: the constructive write strong-linearization
    function [f] for the histories of Algorithm 2.

    The function consumes an annotated trace of a run of
    [Registers.Alg2] — the history events plus the [ValWrite],
    [TsSnapshot] and [ReadTs] annotations the implementation records — and
    produces a sequential history [S = f(H)]:

    - it scans the [Val[-]] writes in time order, maintaining the sequence
      [WS] of already-linearized write operations; when the [i]-th
      [Val[-]] write (at time [t_i], by operation [w_i]) is not yet in
      [WS], it collects the set [C_i] of write operations active at [t_i]
      and not in [WS], evaluates each one's {e possibly incomplete} vector
      timestamp at [t_i] (the writer's [new_ts], which starts at
      [[∞,…,∞]] and is non-increasing), selects those
      [B_i = { w ∈ C_i | ts_w ≤ ts_{w_i} }], and appends them to [WS] in
      increasing timestamp order (Algorithm 3, lines 3–15);
    - read operations returning a value with timestamp [ts] are inserted
      immediately after the write that published [ts] (or before all
      writes if [ts = [0,…,0]]), in increasing invocation order
      (lines 22–31).

    Because [WS] is only ever appended to, the write order of [f(G)] is a
    prefix of that of [f(H)] whenever [G ⊑ H] — property (P) of
    Definition 4; the property tests in [test/test_alg3.ml] verify both
    (L) and (P) on randomly scheduled runs by applying this function to
    every prefix of the trace. *)

val linearize :
  ?metrics:Obs.Metrics.t -> Simkit.Trace.t -> obj:string -> History.Op.t list
(** [f(H)] for the full trace.  [metrics] (default a fresh registry)
    receives [alg3.linearizations] / [alg3.ops_placed]; parallel drivers
    pass the run's private registry. *)

val linearize_upto :
  ?metrics:Obs.Metrics.t ->
  Simkit.Trace.t ->
  obj:string ->
  time:int ->
  History.Op.t list
(** [f(G)] where [G] is the prefix of the history up to (and including)
    trace time [time].  Operations without a response by [time] are
    treated as pending, exactly as Algorithm 3 sees them on-line. *)

val write_order :
  ?metrics:Obs.Metrics.t -> Simkit.Trace.t -> obj:string -> time:int -> int list
(** Op ids of the write sequence of [f(G)] — the object of property (P). *)
