(** Theorem 14 of the paper: every linearizable implementation of a SWMR
    register is write strongly-linearizable.

    The proof takes an arbitrary linearization function [f] and derives
    [f*] by removing, from each [f(H)], a trailing incomplete write.  The
    write operations of a SWMR history are totally ordered by their start
    times (Observation 66 — there is a single writer and it is
    sequential), so the write sequence of any linearization is forced; the
    only freedom [f] has about writes is whether the at-most-one pending
    write (Observation 65) is included, and dropping it when nothing
    depends on it makes the write sequence grow monotonically with the
    history.

    This module implements [f*] constructively for SWMR register
    histories:
    - {!linearize} computes a canonical linearization (writes in writer
      order; each completed read after the write whose value it returned,
      reads of equal value ordered by invocation; a pending write included
      only if some completed read returned its value);
    - {!wsl_function} applies it to every event-prefix of a history and
      checks that the resulting write orders form a ⊑-chain — i.e. that
      the function is a write strong-linearization function on that
      execution (it is, whenever the input history is linearizable). *)

val linearize :
  ?metrics:Obs.Metrics.t ->
  init:History.Value.t ->
  History.Hist.t ->
  History.Op.t list option
(** [f*(H)] for a single-object SWMR history, or [None] if [H] is not
    linearizable (e.g. not actually single-writer, or a read returns a
    stale value).  The result, when present, satisfies Definition 2. *)

val wsl_function :
  ?metrics:Obs.Metrics.t ->
  init:History.Value.t ->
  History.Hist.t ->
  (int list list, string) result
(** Apply [f*] to every event-prefix; on success return the write order of
    each prefix (each a prefix of the next — property (P)).  [Error]
    explains which prefix failed to linearize or broke monotonicity.
    [metrics] (default a fresh registry) receives
    [fstar.linearizations] / [fstar.prefixes]. *)
