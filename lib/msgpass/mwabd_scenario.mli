(** The Theorem-13 counterexample transposed to message passing: the
    multi-writer ABD register is linearizable but not write
    strongly-linearizable, because a pending writer's Lamport timestamp
    depends on which timestamp-query replies the network delivers.

    Construction (3 nodes, writers at nodes 0 and 1, reader at node 2):

    - common prefix [G]: writer 0's write [w1] broadcasts its timestamp
      query and receives one reply (sq 0) — one short of a majority —
      while a second sq-0 reply sits undelivered and node 2's server has
      not yet processed the query.  Writer 1's write [w2] then runs to
      completion (timestamp ⟨1,1⟩ valued at node servers 1 and 2).
    - extension [H1]: deliver the {e stale} in-flight reply (sq 0) — [w1]
      forms ⟨1,0⟩ < ⟨1,1⟩, completes, and a read returns [w2]'s value:
      any linearization puts [w1] {e before} [w2].
    - extension [H2]: instead let node 2's server (which now stores sq 1)
      process the query — [w1] forms ⟨2,0⟩ > ⟨1,1⟩, completes, and a read
      returns [w1]'s value: [w2] {e before} [w1].

    The two extensions share [G] event-for-event, so the history tree
    {G → H1, H2} admits no write strong-linearization function — verified
    by the exact tree checker. *)

val run : ?metrics:Obs.Metrics.t -> unit -> Linchk.Treecheck.fork
(** [metrics] (default a fresh registry) receives both branches' run
    counters and the tree checker's. *)
