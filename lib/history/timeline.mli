(** ASCII rendering of histories as per-process timelines, in the style of
    the paper's Figures 1–4.  Each operation is drawn as an interval
    [|--- label ---|] on its process's line, positioned by invocation and
    response times. *)

val render : Hist.t -> string
(** [render h] draws one line per process, on a time axis of 100 columns;
    times are scaled to fit. *)
