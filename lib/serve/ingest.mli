(** Stream ingestion for [rlin serve]: chunked-line reading that tolerates
    partial (mid-write) tails, and total parsing of the
    [Simkit.Trace.entry_json] JSONL schema into typed events.  Malformed
    input becomes [Error] for the quarantine — nothing here raises. *)

module Reader : sig
  type t

  val create : unit -> t

  val feed : t -> string -> string list
  (** Feed an arbitrary byte chunk; returns the complete
      (newline-terminated) lines it finishes, in order.  An unterminated
      tail is buffered for the next chunk — the fix for following a file
      whose writer is mid-line at our EOF. *)

  val pending : t -> string option
  (** The buffered fragment, if any (not consumed). *)

  val take_rest : t -> string option
  (** Surrender the fragment at end-of-stream: a final line the writer
      never newline-terminated is still a line. *)
end

val value_of_json : Obs.Json.t -> (History.Value.t, string) result
(** Inverse of {!Simkit.Trace.value_json}. *)

val value_json : History.Value.t -> Obs.Json.t

type event = History.Event.t =
  | Invoke of {
      op_id : int;
      proc : int;
      obj : string;
      kind : History.Op.kind;
    }
  | Respond of { op_id : int; result : History.Value.t option }
(** A record's event is a {!History.Event.t}: the generators, the
    checkers and the trace renderer take it as parsed. *)

type parsed =
  | Event of { time : int; ev : event }
  | Annotation of string
      (** A known non-history record kind (lin/coin/valwrite/ts/readts/
          note) — counted and skipped, not quarantined. *)

val parse_json : Obs.Json.t -> (parsed, string) result
val parse_line : string -> (parsed, string) result

val event_json : time:int -> event -> Obs.Json.t
(** Render back to the trace schema (exact inverse of {!parse_line} on
    events) — test and experiment harness plumbing. *)
