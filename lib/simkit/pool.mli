(** The repo's one parallel runner: run batteries (Monte-Carlo adversary
    games, random-run checkers, chaos searches, fleet shards) all go
    through it.  A single checker search ([Lincheck], [Treecheck]) is
    sequential and never uses it.

    Tasks are identified by their index [0..n-1] and claimed from a
    shared cursor, so load balances automatically however uneven the
    per-task cost.  When tasks vastly outnumber domains (fleet-scale
    batteries fanning out millions of tiny tasks) each claim takes a
    short {e chunk} of consecutive indices per atomic fetch instead of
    one, so the cursor cache line stops bouncing on every task; with few
    tasks the chunk degenerates to 1 and behaviour is unchanged.

    Worker domains are process-wide: spawned lazily, at most
    [min jobs (default_jobs ())) - 1] of them, and parked on a
    [Mutex]/[Condition] between calls, so a call costs no [Domain.spawn]
    and an idle worker burns no CPU.  A call publishes its job, runs it
    on the calling domain too, and returns once every worker that joined
    has finished.  One call owns the workers at a time: a call made from
    inside a task, or from another domain while a call is in flight,
    runs inline on its own domain, exactly as [jobs = 1] would.  Every
    domain that runs a task runs a minor heap of {!minor_heap_words}
    words, not the runtime's 256k: each worker runs
    {!right_size_minor_heap} once when it starts, and {!fold_runs} runs
    it on the calling domain as it enters.  The caller keeps that size
    after the call returns.

    Every call goes through {!fold_runs}: tasks hand back values that
    are folded, with their private metric registries, in index order, so
    a battery keeps no per-task array — only the tasks that ran ahead of
    a slower lower-index one are held, until it finishes.

    Determinism contract: a task must derive all its randomness from its
    index (per-run seeds) and must not touch shared mutable state — in
    particular it must record metrics into the registry it is handed
    (there is no shared one to record into instead).  Under that contract,
    [fold_runs ~jobs:n] returns exactly what [fold_runs ~jobs:1]
    returns and leaves [metrics] exactly as it does. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the [-j] default of the CLIs. *)

val minor_heap_words : int
(** 65,536: the minor heap, in words (512 KB), of a domain that ran
    {!right_size_minor_heap}. *)

val right_size_minor_heap : unit -> unit
(** Set the calling domain's minor heap to {!minor_heap_words}, unless
    [OCAMLRUNPARAM] or [CAMLRUNPARAM] has an [s=] entry, which then
    stands (both are read once, when the module initialises).  A domain
    already at that size is left as it is.  It changes GC timing only,
    never a result.  On OCaml 5.1.1 it does not reach domains spawned
    later: each one calls it for itself.  {!fold_runs} calls it, so a
    program needs it only for work that never reaches the pool. *)

val runparam_sets_minor_heap : string -> bool
(** Whether an [OCAMLRUNPARAM] value has an [s=] entry: one of its
    comma-separated entries starts with [s=]. *)

val fold_runs :
  jobs:int ->
  metrics:Obs.Metrics.t ->
  int ->
  init:'acc ->
  fold:('acc -> 'a -> 'acc) ->
  (metrics:Obs.Metrics.t -> int -> 'a) ->
  'acc
(** [fold_runs ~jobs ~metrics n ~init ~fold f] evaluates [f ~metrics:m i]
    for each [i] in [0..n-1] on up to [jobs] domains (the calling domain
    included, which it first puts on {!minor_heap_words} words with
    {!right_size_minor_heap}), each with a fresh registry [m], and returns
    [fold (... (fold init v0) ...) v(n-1)].  Task [i]'s [fold] step and
    the {!Obs.Metrics.merge} of its registry into [metrics] happen once
    tasks [0..i] have all finished, on whichever domain finished the last
    of them; they are serialized and in index order, so neither the
    result nor [metrics] depends on [jobs].  Nothing else may touch
    [metrics] while the call runs.  [jobs <= 1], [n <= 1] and calls
    nested in a task or made from another domain while a call is in
    flight run the same claim loop on the calling domain alone, in index
    order.

    If task [i] raises, no task above [i] starts (started ones finish)
    while every task below [i] still runs, so the exception re-raised —
    with its backtrace — is always that of the lowest-index failing
    task, and [metrics] then holds exactly the merge of tasks [0..i-1],
    at any [jobs].  A [fold] step that raises counts as a failure of the
    task it was folding.
    @raise Invalid_argument if [n < 0]. *)
