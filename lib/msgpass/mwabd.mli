(** Multi-writer ABD: the standard MWMR register for message-passing
    systems, built from the SWMR ABD by adding a timestamp-query phase
    before each write.

    A writer first asks a majority for their current sequence numbers,
    forms [⟨max+1, pid⟩] — a {e Lamport} timestamp, exactly as in the
    paper's Algorithm 4 — and then pushes [(v, ts)] to a majority.
    Readers are unchanged from ABD (query majority, pick max, write back).

    Being timestamp-based like Algorithm 4, this register is linearizable
    but {e not} write strongly-linearizable, and for the same reason: at
    the moment a write completes, a concurrent writer's timestamp may
    still depend on which query replies the network will deliver.
    {!Mwabd_scenario} transposes Figure 4 to message passing: a common
    prefix [G] in which writer 0's query phase has stalled mid-quorum and
    writer 1's write has completed, with two delivery-order extensions
    forcing opposite write orders.  Theorem 14's "every linearizable SWMR
    implementation is WSL" therefore really is about the {e single}-writer
    structure, not about message passing vs shared memory.

    Everything but the writer's timestamp choice is the shared {!Replica}
    core, over [⟨sq, pid⟩] timestamps where replica [node] starts at
    [⟨0, node⟩].  Metrics live under [reg.mwabd.*]. *)

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
  init:int ->
  unit ->
  t
(** The shared replica core's [create] ({!Replica.Make.create}) with
    [proto = "mwabd"]; every node may write. *)

val write : t -> proc:int -> int -> unit
(** Two-phase write (query, then update); call from fiber [proc] (a
    node id). *)
