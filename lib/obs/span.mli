(** Nestable timing scopes over wall-clock and simulated time.

    [with_span name f] times [f ()] and records, in the target registry:

    - counter [span.<path>.calls];
    - histogram [span.<path>.wall_ms] (wall-clock milliseconds);
    - histogram [span.<path>.sim] (simulated-clock delta) when a
      [sim_clock] is supplied — pass [fun () -> Sched.now sched] to
      measure in scheduler time.

    [<path>] is the [/]-separated chain of the enclosing spans, so nested
    scopes produce distinguishable metrics ([span.e6/abd-run.wall_ms]).
    Exceptions propagate; the span still closes and records.

    When an ambient {!Tracer} is installed ({!set_tracer}), every span
    additionally emits a begin/end event pair (category ["span"], name =
    path, [args.ph] = ["B"]/["E"]), which the Perfetto exporter renders
    as slices — experiment phases appear on the timeline alongside the
    scheduler/network events they enclose.  The default tracer is
    {!Tracer.null}, so untraced runs pay one field read per span. *)

val with_span :
  ?metrics:Metrics.t ->
  ?sim_clock:(unit -> int) ->
  string ->
  (unit -> 'a) ->
  'a
(** Defaults to {!Metrics.global}. *)

val with_root :
  ?metrics:Metrics.t ->
  ?sim_clock:(unit -> int) ->
  string ->
  (unit -> 'a) ->
  'a
(** Like {!with_span}, but asserts it opens the {e outermost} span — the
    named top-level slice for a whole run or battery ([rlin experiments]
    wraps the E-battery in [with_root "battery"]).
    @raise Invalid_argument if a span is already open. *)

val root : unit -> string option
(** The outermost active span's name, if any. *)

val set_tracer : Tracer.t -> unit
(** Install the ambient tracer span events go to ({!Tracer.null} to
    uninstall).  Spans read it at entry/exit; installing mid-span yields
    an end event with no matching begin, which the exporters tolerate. *)

val now_ms : unit -> float
(** Monotonic-ish wall clock in milliseconds (the one spans use) — exposed
    so drivers can stamp durations without opening a span. *)
