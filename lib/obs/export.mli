(** Line-delimited JSON (JSONL) export.

    One {!Json.t} value per line; every record carries a ["kind"] field so
    mixed streams (metrics + reports) stay self-describing.
    Serialization of domain types that live above this library in the
    dependency graph stays with those types ([Simkit.Trace.entry_json],
    [Experiments.report_json]); this module provides the record shapes
    that need only metrics, plus the writer/parser machinery. *)

(** {2 Writing} *)

val write_line : out_channel -> Json.t -> unit
(** One rendered value, then a newline. *)

val write_line_verified : out_channel -> Json.t -> (unit, string) result
(** Like {!write_line}, but round-trip-verified per record: the rendered
    line is re-parsed and compared structurally before being written.
    Streaming — no buffering of earlier records — so it is safe on an
    unbounded pipe ([rlin trace --follow]) as well as on files (where it
    replaces re-reading the whole file after the fact).  On [Error]
    nothing is written for this record. *)

val write_lines : out_channel -> Json.t list -> unit

val to_file : string -> Json.t list -> unit
(** Create/truncate [path] and write every value, one per line. *)

val lines_to_string : Json.t list -> string

(** {2 Reading back} *)

val parse_lines : string -> (Json.t list, string) result
(** Parse a JSONL document (empty lines ignored); the error message names
    the offending line. *)

val parse_file : string -> (Json.t list, string) result

(** {2 Record shapes} *)

val metrics_json : ?label:string -> Metrics.snapshot -> Json.t
(** [{"kind":"metrics","label":…,"counters":{…},"gauges":{…},
     "histograms":{name:{count,sum,min,max,mean,p50,p90,p99}}}] *)

val report_json :
  id:string ->
  claim:string ->
  expected:string ->
  measured:string ->
  pass:bool ->
  metrics:(string * float) list ->
  Json.t
(** [{"kind":"report","id":…,…,"metrics":{name:value}}] — the schema of
    [rlin experiments --json]. *)
