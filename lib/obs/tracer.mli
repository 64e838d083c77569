(** Causal flight recorder: a bounded ring buffer of typed events.

    Instrumented components (the scheduler, the network, the registers,
    the checkers) emit events stamped with sim-time, a track (node/fiber
    pid) and a causal parent; the recorder keeps the last
    [capacity] of them.  Exporters turn a retained window into Chrome
    [trace_event] JSON (openable in Perfetto/chrome://tracing) or a DOT
    causal graph of one operation's ancestry; {!event_json} is the JSONL
    shape streamed by [rlin trace --events/--follow] and attached to
    chaos corpus entries as violation post-mortems.

    {b Overhead discipline} (DESIGN.md §13): when a tracer is not armed
    the recording path is a single branch on {!armed} — a bare field
    read — and allocates nothing.  Call sites must guard the whole
    [emit], including the construction of its [~args] list, behind
    [if Tracer.armed t then ...]; building the arguments first and
    letting [emit] discard them would pay allocation on the hot path the
    flag exists to protect.  {!null} is the shared never-armed tracer
    every component defaults to. *)

type event = {
  seq : int;  (** per-tracer sequence number: the event's identity *)
  sim : int;  (** scheduler step clock (checker probes use their own
                  progress counter) *)
  track : int;  (** node/fiber pid; [-1] is the run-level track *)
  cat : string;  (** ["sched"], ["net"], ["reg"] or ["check"] *)
  name : string;
  parent : int;  (** causal parent's [seq]; [-1] when the event is a root *)
  args : (string * Json.t) list;
}

type sink = event -> unit

type t

val create : ?capacity:int -> ?armed:bool -> unit -> t
(** A fresh recorder. [capacity] (default 65536) bounds retained events;
    [armed] (default [true]) sets the initial state of the flag.
    @raise Invalid_argument if [capacity <= 0]. *)

val null : t
(** The shared never-armed tracer: the default wherever a tracer is
    optional, so instrumented code needs no option check.
    @raise Invalid_argument if {!set_armed} tries to arm it. *)

val armed : t -> bool
(** The one branch on the recording path: a bare field read. *)

val set_armed : t -> bool -> unit

val capacity : t -> int

val emit :
  t ->
  ?track:int ->
  ?parent:int ->
  ?args:(string * Json.t) list ->
  sim:int ->
  cat:string ->
  string ->
  int
(** Record an event; returns its sequence number ([-1] if disarmed —
    but see the guard discipline above: don't rely on that).  [parent]
    defaults to the ambient {!ctx}; [track] defaults to [-1]. *)

val emitted : t -> int
(** Total events emitted (≥ retained count once the ring has wrapped). *)

val events : t -> event list
(** Retained events, oldest first. *)

val clear : t -> unit
(** Drop every retained event and reset the sequence counter and {!ctx}. *)

(** {2 Causal context}

    The simulator is single-threaded (cooperative fibers under one
    scheduler), so one ambient cell carries the "current cause": [Net]
    sets it to the deliver event on message receipt, the registers set
    it around an operation's rounds, and emits with no explicit
    [~parent] inherit it.  [-1] means no ambient cause. *)

val ctx : t -> int
val set_ctx : t -> int -> unit
(** No-op when disarmed (so call sites need no extra guard). *)

val set_sink : t -> sink option -> unit
(** A callback invoked synchronously on every emit, after the event is
    stored — the [--follow] streaming hook. *)

(** {2 JSONL}

    The canonical record: [{"kind":"trace_event","seq":…,"t":…,
    "track":…,"cat":…,"name":…,"parent":…,"args":{…}}].  It carries
    no wall clock: canonical streams must be byte-identical across
    [-j 1]/[-j 2] and across re-executions (CI diffs them, the corpus
    replays them). *)

val event_json : event -> Json.t
val event_of_json : Json.t -> (event, string) result

val validate_event_json : Json.t -> (unit, string) result
(** Schema check for one canonical record (the CI gate). *)

(** {2 Exporters} *)

val perfetto_json : event list -> Json.t
(** Chrome [trace_event] JSON: one thread per track with a
    [thread_name] metadata record (["run"] for track [-1], ["node <k>"]
    otherwise), an ["X"] slice per event, ["C"] counter samples for each
    numeric argument of ["check"]-category events (the progress-probe
    counter tracks), and ["s"]/["f"] flow pairs along cross-track causal
    edges (message send → deliver).  Timestamps are the sim clock. *)

val validate_perfetto : Json.t -> (int, string) result
(** Validate a whole [{"traceEvents":[…]}] document; [Ok n] is the
    number of trace events. *)

val dot_of_ancestry : event list -> seq:int -> string
(** A DOT digraph of the causal cone containing event [seq]: its
    ancestor chain's root plus every retained event reaching that root,
    edges parent → child; the target node is highlighted. *)
