(** ASCII rendering of histories as per-process timelines, in the style of
    the paper's Figures 1–4.  Each operation is drawn as an interval
    [|--- label ---|] on its process's line, positioned by invocation and
    response times. *)

val render : ?width:int -> Hist.t -> string
(** [render h] draws one line per process.  [width] bounds the number of
    columns used for the time axis (default 100); times are scaled to fit. *)
