(** The quorum-replica core shared by {!Abd} and {!Mwabd}.

    The two registers differ only in how a writer picks its timestamp, so
    everything else lives here once, as a functor over the timestamp
    type: the messages, the replica state and server loop, the persist
    points, quorum rounds, the read, crash handling and the
    state-transfer recovery handshake.

    Each of the [n] nodes runs a server fiber (pid [100 + node]) holding
    its replica; client operations run in fibers the caller spawns.  A
    client operation is built from two phases, each one quorum round:
    - {b query}: ask the replicas for their [(ts, v)] and keep the pair
      with the largest timestamp;
    - {b update}: push a [(ts, v)] pair to the replicas, which adopt it if
      it is newer than their copy.

    A read is a query followed by an update of the pair it found (the
    "readers must write" phase — without it two sequential reads could
    observe new-then-old); a write is an update, optionally preceded by a
    query that informs its timestamp.

    {b Fault tolerance.}  The client phases are hardened against lossy
    links (see {!Simkit.Faults} / {!Net.set_faults}): requests name the
    pid to answer, every reply carries the responding replica's node
    index and quorums count {e distinct} nodes, so duplicated messages can
    never double-count; requests are retransmitted to the not-yet-heard
    replicas after [retry_after] fruitless yields (a deterministic
    step-count timeout), and the server handlers are idempotent, so every
    phase terminates under any fault plan that keeps a majority of
    replicas reachable.  Stale or mismatched replies are counted as
    [reg.<proto>.stale], retransmission rounds as
    [reg.<proto>.retransmits]. *)

type persist = [ `Every | `Never ]
(** The replica's sync-point discipline: [`Every] makes each accepted
    update durable before it is acknowledged (write-through — safe under
    any recovery mode); [`Never] leaves updates in the volatile tail of
    the write-ahead log, so a crash rolls the replica's durable copy back
    to its last sync (only the initial state, for [`Never]). *)

(** A register timestamp. *)
module type TS = sig
  type t

  val init : node:int -> t
  (** Replica [node]'s timestamp for the initial value. *)

  val compare : t -> t -> int
  (** A total order; a replica adopts an update only if it is larger. *)

  val field : t -> string * Obs.Json.t
  (** The key and value a flight-recorder [persist] event records. *)
end

(** What both registers export besides [create] and [write]. *)
module type S = sig
  type t

  type msg
  (** Protocol messages (abstract; exposed so callers can thread the
      register's network into a delivery policy). *)

  val net : t -> msg Net.t
  val majority : t -> int

  val read : t -> reader:int -> int
  (** Client operation; must run in fiber [reader]. *)

  val crash_node : t -> node:int -> unit
  (** Crash a node's server (and its client fiber if spawned): it stops
      acknowledging, the network dead-letters its mail from now on, and
      the un-persisted suffix of its stable-storage log is lost.  The
      caller is responsible for keeping a majority alive. *)

  val recover_node : t -> node:int -> unit
  (** Crash–recovery: restart a crashed node's server with a bumped
      incarnation and a fresh mailbox.  The new incarnation reloads the
      durable register copy, then runs a {e state-transfer handshake} —
      a query of a majority of the {e other} replicas (self-exclusion
      keeps an amnesiac copy from vouching for itself): adopt the largest
      timestamp, persist, and only then serve — so a recovered replica
      can never answer quorums with state older than what its pre-crash
      incarnation acknowledged.  With [unsafe_recovery] the handshake is
      skipped.  Counted as [reg.<proto>.recoveries]; handshakes as
      [reg.<proto>.state_transfer]; lossy unsafe rejoins as
      [reg.<proto>.amnesia].
      @raise Invalid_argument if the node's server has not crashed. *)

  val server_pid : node:int -> int
  (** [100 + node]: the pid of node [node]'s server fiber. *)
end

module Make (Ts : TS) : sig
  include S

  val create :
    ?retry_after:int ->
    ?quorum:int ->
    ?persist:persist ->
    ?unsafe_recovery:bool ->
    ?compact:bool ->
    proto:string ->
    sched:Simkit.Sched.t ->
    name:string ->
    n:int ->
    init:int ->
    unit ->
    t
  (** [n >= 2] nodes ([< 100]); spawns the [n] server fibers.  [proto]
      (["abd"] or ["mwabd"]) names the register in error messages
      (["Abd.create: …"]) and its metrics ([reg.abd.*]).  [retry_after]
      (default 25; [<= 0] disables) is the client retransmission timeout
      in own-fiber yields.

      [quorum] (default the majority [⌊n/2⌋+1]) overrides how many
      distinct replies each round waits for.  {b Test-only bug
      injection}: any value with [2*quorum <= n] breaks quorum
      intersection and with it linearizability — it exists so the chaos
      self-test (E12) can prove the monitor → shrinker → corpus loop
      catches a real protocol bug.  Every round records the size it
      waited for in the [reg.<proto>.quorum.need] histogram, which is
      what the quorum-sanity monitor audits.

      [persist] (default [`Every]) is the replica sync-point policy
      backing each node's {!Simkit.Stable} log.  [unsafe_recovery]
      (default [false]) makes {!recover_node} skip the state-transfer
      handshake and serve straight from the durable copy.  {b Test-only
      bug injection}: with [`Never] persistence an unsafe recovery
      rejoins quorums with rolled-back state, breaking quorum
      intersection across the crash — the seeded bug the
      recovery-sanity monitor catches (counted as [reg.<proto>.amnesia]).

      [compact] (default [false]) turns on {!Simkit.Stable}'s automatic
      log compaction: each persist prunes the durable prefix down to its
      newest record, keeping per-node stable storage O(volatile tail)
      instead of O(operations).  Recovery semantics are unchanged
      ([last_durable] is always retained) — the fleet engine sets this so
      memory stays flat across millions of operations.
      @raise Invalid_argument on a bad [n] or [quorum]. *)

  val name : t -> string
  val n : t -> int

  val write : t -> proc:int -> stamp:((unit -> Ts.t) -> Ts.t) -> int -> unit
  (** Client operation writing a value; must run in fiber [proc].
      [stamp query] picks the write's timestamp; calling [query] first
      runs a query phase and returns the largest timestamp a quorum
      holds.  The write then updates a quorum. *)
end
