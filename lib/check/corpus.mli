(** The replayable regression corpus: minimal chaos reproducers as JSONL.

    Each line is a [{"kind":"chaos_repro",…}] record carrying the minimal
    config, the violation it produces, the pre-shrink config (for
    forensics), and how many shrink executions it took.  Because configs
    re-execute deterministically from their own seeds, [rlin chaos
    replay] re-runs every entry and demands the {e same serialized
    violation} — a silent fix and a changed failure mode are both
    reported. *)

type entry = {
  config : Msgpass.Runs.Config.t;  (** minimal reproducer *)
  violation : Monitor.violation;  (** what it produces *)
  original : Msgpass.Runs.Config.t option;  (** pre-shrink config *)
  shrink_attempts : int;  (** oracle executions spent shrinking *)
  postmortem : Obs.Json.t list;
      (** flight-recorder post-mortem: the last-K canonical trace events
          of a re-execution of [config] ({!Monitor.postmortem}), [[]]
          when no recorder ran.  Serialized only when non-empty, so
          recorder-off corpora are byte-identical to pre-recorder ones;
          loading validates each event against the trace schema. *)
}

val entry_json : entry -> Obs.Json.t

val load : string -> (entry list, string) result
(** From a [.jsonl] file, or every [*.jsonl] in a directory (sorted by
    file name). *)

val save : string -> entry list -> unit
(** Create/truncate a file. *)

val append : string -> entry -> unit
(** Append one line, creating the file if needed. *)

type replay_outcome =
  | Reproduced  (** same violation, byte-for-byte serialized *)
  | Changed of Monitor.violation  (** still fails, differently *)
  | Fixed  (** no monitor trips any more *)

val replay : entry -> replay_outcome
(** Re-execute the entry's config against {!Monitor.standard} and compare
    violations. *)
