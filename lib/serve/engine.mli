(** The [rlin serve] engine: line-oriented ingest over any number of
    registers, dispatching events to per-object {!Segmenter}s and
    emitting {!Verdict} records as segments retire.  It is also the
    self-check's oracle: {!Reference.run} is this engine with
    {!Reference.offline} deciding each segment.

    Robustness properties:
    - {b quarantine} — malformed or semantically impossible lines
      (bad JSON, unknown schema, duplicate / orphan op ids,
      non-monotone times) are counted, reported via [on_quarantine]
      with their 1-based line number, and skipped.  Never fatal.
    - {b backpressure} — at most [max_pending] events are buffered
      across all open segments; the segment that overflows the bound is
      shed to an explicit [Unknown (Shed _)] and costs O(1) per event
      until it closes.
    - {b determinism} — verdicts, their order and all counters are a
      function of (config, input lines) only, so [--resume] is
      byte-identical and the {!Reference} self-check is meaningful.

    Memory is bounded by the open segments: an idle object is only its
    {!Checkpoint.obj_state}, and an object that opens a segment borrows a
    {!Segmenter} from the engine's free list until the segment retires. *)

type config = {
  init : History.Value.t;  (** each object's initial register value *)
  seg : Segmenter.config;
  max_pending : int;  (** events buffered across all open segments *)
}

val default_config : config

type t

val create :
  ?metrics:Obs.Metrics.t ->
  ?decide:Segmenter.decide ->
  ?config:config ->
  emit:(Verdict.t -> unit) ->
  ?on_quarantine:(line:int -> string -> unit) ->
  unit ->
  t
(** [decide] (default {!Segmenter.incremental}) decides each segment. *)

val restore :
  ?metrics:Obs.Metrics.t ->
  ?config:config ->
  emit:(Verdict.t -> unit) ->
  ?on_quarantine:(line:int -> string -> unit) ->
  Checkpoint.t ->
  t
(** An engine whose cross-segment state (counters, time high-water mark,
    per-object segment index and entry set) comes from a checkpoint,
    whose object records it keeps as they are.  The caller then feeds the
    stream from line [cursor + 1] on. *)

val feed_line : t -> string -> unit
(** One input line (no trailing newline needed; blank lines ignored). *)

val finish : t -> unit
(** End of stream: flush every open segment to a [closed = false]
    verdict. *)

val checkpoint : t -> Checkpoint.t option
(** [Some _] only at globally quiescent points (no open op anywhere):
    then every object is a record, and these are the checkpoint's. *)

val quiescent : t -> bool
(** No open op anywhere, so no open segment. *)

val summary_json : t -> Obs.Json.t

(** {2 Counters} *)

val lines : t -> int
val events : t -> int
val annotations : t -> int
val quarantined : t -> int
val shed_events : t -> int
val ok : t -> int
val fail : t -> int
val unknown : t -> int
val verdicts : t -> int

val objects : t -> int
(** Objects seen so far: the records a {!checkpoint} holds. *)
