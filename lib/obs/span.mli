(** Nestable wall-clock timing scopes.

    [with_span name f] times [f ()] and records, in the target registry:

    - counter [span.<path>.calls];
    - histogram [span.<path>.wall_ms] (wall-clock milliseconds).

    [<path>] is the [/]-separated chain of the enclosing spans, so nested
    scopes produce distinguishable metrics ([span.e6/abd-run.wall_ms]).
    Exceptions propagate; the span still closes and records. *)

val with_span : ?metrics:Metrics.t -> string -> (unit -> 'a) -> 'a
(** Defaults to {!Metrics.global}. *)

val with_root : ?metrics:Metrics.t -> string -> (unit -> 'a) -> 'a
(** Like {!with_span}, but asserts it opens the {e outermost} span — the
    named top-level scope for a whole run or battery ([rlin experiments]
    wraps the E-battery in [with_root "battery"]).
    @raise Invalid_argument if a span is already open. *)

val now_ms : unit -> float
(** Monotonic-ish wall clock in milliseconds (the one spans use) — exposed
    so drivers can stamp durations without opening a span. *)
