(** The offline oracle behind [rlin serve --self-check]: the {!Engine}
    itself with its per-segment decider swapped for {!offline}.  The
    screens, segment boundaries, entry-set propagation and verdict
    assembly are the engine's own, so only the decision differs; on a run
    with no resource degradation the verdict records are byte-identical
    to the engine's. *)

val offline : Segmenter.decide
(** Buffer the segment's events and decide them with one
    {!Linchk.Lincheck.finals} search from each entry value.  [Fail] iff
    no search finds a linearization; [Pass] keeps the candidates — the
    entry values, then every distinct value the segment wrote, in
    first-write order — that some search ends on.  Ops are numbered by
    the segmenter, which also trips the op cap; the state budget does not
    apply. *)

type result = { verdicts : Verdict.t list }

val run : ?config:Engine.config -> string list -> result
(** Replay the raw input lines through [Engine.create ~decide:offline]
    with backpressure off.  [config]'s [state_budget] and [max_pending]
    are ignored — this oracle is unbounded by construction. *)

type comparison = {
  matched : int;
  skipped : int;  (** resource-degraded objects' tails — not comparable *)
  mismatches : (Verdict.t option * Verdict.t option) list;
      (** (engine, reference) pairs that should have agreed but differ *)
}

val agreed : comparison -> bool

val compare_verdicts :
  engine:Verdict.t list -> reference:Verdict.t list -> comparison
(** Pair by (object, segment index); strict {!Verdict.equal} until an
    object's first resource-[Unknown] on the engine side, skipped from
    there on (the entry sets legitimately diverge). *)
