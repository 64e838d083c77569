(** Execution traces.

    A trace records everything that happens in a run, in global time order:
    the high-level invocation/response events that form the {e history}
    (in the Herlihy–Wing sense), plus internal annotations that are not part
    of the history but that the paper's constructions need:

    - linearization points chosen by register implementations (used to
      audit that a register really linearized each operation within its
      interval);
    - coin flips (visible to a {e strong} adversary only after they occur);
    - the base-register writes and partial-timestamp snapshots of
      Algorithm 2, which are exactly the inputs Algorithm 3 (the on-line
      write strong-linearization function) consumes.

    A trace either keeps its entries, for the readers below, or hands each
    one to a {e sink} as it is recorded and keeps none.  The sink is how a
    long run streams its history into a consumer (the fleet's sampled
    shards feed {!Serve.Segmenter}; the rest pass [ignore]): memory then
    stays flat in the run length, and {!entries}, {!history}, {!lin_time},
    {!coins}, {!pp} and {!json_entries} see nothing. *)

type entry =
  | Ev of History.Event.timed  (** history event *)
  | Lin of { time : int; op_id : int }
      (** linearization point of operation [op_id] *)
  | Coin of { time : int; proc : int; value : int }
  | ValWrite of { time : int; op_id : int; proc : int; idx : int }
      (** Algorithm 2 line 8: the write to [Val[idx]] performed on behalf of
          high-level write [op_id] *)
  | TsSnapshot of { time : int; op_id : int; proc : int; ts : Clocks.Vector.t }
      (** the value of the writer's [new_ts] after an update, while
          executing high-level write [op_id] *)
  | ReadTs of { time : int; op_id : int; proc : int; ts : Clocks.Vector.t }
      (** the winning timestamp selected by a completed read of the
          Algorithm 2 register (line 14) — lets Algorithm 3 match the read
          to the write whose value it returned even when values repeat *)
  | Note of { time : int; tag : string; text : string }

type t

val create : ?metrics:Obs.Metrics.t -> ?sink:(entry -> unit) -> unit -> t
(** [metrics] (default a fresh registry) receives the trace's
    counters ([trace.invokes], [trace.responds], [trace.lins]) and the
    per-operation simulated-time latency histogram [op.latency.sim].

    [sink], if given, receives every entry in time order as it is
    recorded, and the trace keeps none of them.  The clock, op ids,
    counters and latencies are the same with or without one. *)

val metrics : t -> Obs.Metrics.t

val now : t -> int
(** The current clock: the time of the last recorded entry. *)

val next_time : t -> int
(** Advance the clock and return the fresh timestamp.  Every recorded entry
    calls this internally, so all entries have distinct times. *)

val invoke : t -> proc:int -> obj:string -> kind:History.Op.kind -> int
(** Record an invocation; returns the fresh operation id. *)

val respond : t -> op_id:int -> result:History.Value.t option -> unit
val linearize : t -> op_id:int -> unit
val coin : t -> proc:int -> value:int -> unit
val val_write : t -> op_id:int -> proc:int -> idx:int -> unit
val ts_snapshot : t -> op_id:int -> proc:int -> ts:Clocks.Vector.t -> unit
val read_ts : t -> op_id:int -> proc:int -> ts:Clocks.Vector.t -> unit
val note : t -> tag:string -> text:string -> unit

val entries : t -> entry list
(** In time order. *)

val history : t -> History.Hist.t
(** The history (the [Ev] entries only). *)

val lin_time : t -> op_id:int -> int option
(** Time of the (first) recorded linearization point of an operation. *)

val coins : t -> (int * int * int) list
(** [(time, proc, value)] for every coin flip, in time order. *)

val entry_time : entry -> int
val pp_entry : Format.formatter -> entry -> unit
val pp : Format.formatter -> t -> unit

(** {2 JSONL serialization}

    One JSON object per entry, each with a [t] (time) and [kind] field;
    see DESIGN.md "Observability" for the full schema.  [Obs.Export]
    provides the line-delimited writer these feed into. *)

val value_json : History.Value.t -> Obs.Json.t
val entry_json : entry -> Obs.Json.t

val json_entries : t -> Obs.Json.t list
(** The whole trace in time order — [Obs.Export.to_file] writes it as the
    JSONL dump behind [rlin trace --out]. *)
