(** Random register histories, the inputs of the checkers' property tests,
    of [rlin check], of the cost ledger and of the benchmark.

    A generator is a function of a [Random.State.t]: the shape of a
    [QCheck.Gen.t], so a test can wrap one with [QCheck.make] (see
    [test/arb.ml]), but this library does not depend on QCheck.  The draws
    are pinned by the fingerprint tests in [test/test_history.ml]: the same
    seed yields the same histories on every build.

    Two families:
    - {!atomic_history} produces histories that are linearizable {e by
      construction} (they are recorded from a simulated run over an atomic
      register, so the identity order is a witness);
    - {!arbitrary_history} produces well-formed but otherwise unconstrained
      histories (reads return arbitrary previously-written-or-initial
      values), which may or may not be linearizable — useful for
      differential testing of the decision procedures. *)

type spec = {
  n_procs : int;
      (** processes [1..n_procs]; below 1 counts as 1.  At most
          [2^30 - 1], the largest bound [Random.State.int] accepts:
          a larger one raises [Invalid_argument] when the first process
          is drawn. *)
  n_ops : int;  (** operations to invoke; below 1 counts as 1 *)
  obj : string;
  init : Value.t;
  distinct_writes : bool;
      (** when true, every write carries a fresh value — the regime in
          which the paper's algorithms operate (Observation 24) *)
}

val default_spec : spec

val atomic_history : spec -> Random.State.t -> Hist.t
(** Linearizable by construction.  Each invoked operation is a read or a
    write on a fair coin, so nothing guarantees a write: from
    [Random.State.make [| 42 |]] and {!default_spec}, 2,509 of 10,000
    two-op histories have none, and 38 of 10,000 eight-op ones. *)

val atomic_history_with_witness : spec -> Random.State.t -> Hist.t * Op.t list
(** Same, returning the linearization order used during generation. *)

val arbitrary_history : spec -> Random.State.t -> Hist.t
