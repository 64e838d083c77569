(** The ABD register (Attiya, Bar-Noy, Dolev 1995): a linearizable SWMR
    register in an asynchronous message-passing system where fewer than
    half of the nodes may crash.

    The paper's §6 discusses ABD as the canonical bridge between
    message-passing and shared-memory systems, notes that it is {e not}
    strongly linearizable [20], and proves (Theorem 14) that — like every
    linearizable SWMR implementation — it {e is} write strongly-
    linearizable.  Experiment E6 runs this implementation under random
    asynchrony and crashes, checks every produced history for
    linearizability, and applies the [f*] construction of Theorem 14 to
    every prefix chain to confirm the write-prefix property.

    Protocol (one writer, [n] nodes, majorities of size [⌊n/2⌋+1]):
    - {b write(v)}: the writer increments its local sequence number [ts]
      and returns once a majority of nodes acknowledged storing
      [(ts, v)];
    - {b read()}: the reader collects a majority of (ts, v) replies,
      selects the pair with the largest [ts], {e writes it back} to a
      majority, and returns [v].

    Everything but the writer's timestamp choice — messages, servers,
    quorum rounds, the read, fault tolerance, persistence and the
    crash–recovery handshake — is the shared {!Replica} core, over an
    integer timestamp that starts at [0] on every replica.  Metrics live
    under [reg.abd.*]. *)

include Replica.S

type persist = Replica.persist

val create :
  ?retry_after:int ->
  ?quorum:int ->
  ?persist:persist ->
  ?unsafe_recovery:bool ->
  ?compact:bool ->
  sched:Simkit.Sched.t ->
  name:string ->
  n:int ->
  writer:int ->
  init:int ->
  unit ->
  t
(** The shared replica core's [create] ({!Replica.Make.create}) with
    [proto = "abd"]; [writer] is the one node whose fiber may write.
    @raise Invalid_argument if [writer] is not a node, or as
    {!Replica.Make.create}. *)

val name : t -> string
val n : t -> int
val writer : t -> int

val write : t -> int -> unit
(** Writer-client operation: one update round with the next timestamp
    from the writer's counter; must run in fiber [writer]. *)
