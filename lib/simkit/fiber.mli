(** Cooperative fibers built on OCaml 5 effect handlers.

    A fiber models one asynchronous process of the paper's system: it runs
    until it performs {!yield}, at which point control returns to the
    scheduler (the adversary), which decides who runs next.  A fiber that
    never yields between two shared-memory accesses would be atomic; the
    register implementations in [lib/registers] yield at every base-object
    access, exposing all the interleavings the adversary may exploit. *)

type t

type status =
  | Runnable  (** can be stepped *)
  | Finished  (** the code returned *)
  | Failed of exn  (** the code raised *)

val spawn : pid:int -> (unit -> unit) -> t
val pid : t -> int
val status : t -> status

val is_runnable : t -> bool
(** [status t = Runnable], without building the [Failed] box that
    {!status} allocates for a fiber that raised. *)

val step : t -> status
(** Run the fiber until its next [yield], its return, or an exception.
    Returns the status after the step.
    @raise Invalid_argument when stepping a finished/failed fiber. *)

val discard : t -> unit
(** End a fiber that will never be stepped again, freeing its stack.  A
    suspended fiber is discontinued with an exception private to this
    module, which unwinds its stack to the fiber's own handler; a
    never-started one is simply dropped.  Either way its status becomes
    [Failed] and {!step} raises [Invalid_argument] on it.  Finished,
    failed and running fibers are left as they are, so a second [discard]
    does nothing.

    On OCaml 5 a continuation that is dropped without being resumed keeps
    its stack allocated for the rest of the process; call [discard] (or
    {!Sched.dispose}) on every fiber that is abandoned while suspended.
    The unwinding runs no code of the fiber's unless its body handles
    every exception (a [try … with _]) or uses [Fun.protect]; no fiber
    body in this repository does either. *)

val yield : unit -> unit
(** To be called from inside fiber code only.  Performing it outside a
    fiber raises [Effect.Unhandled]. *)

val run_to_completion : t -> max_steps:int -> status
(** Step repeatedly (used in tests). *)
