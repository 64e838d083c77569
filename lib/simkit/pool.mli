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
    runs inline on its own domain, exactly as [jobs = 1] would.

    Determinism contract: a task must derive all its randomness from its
    index (per-run seeds) and must not touch shared mutable state — in
    particular it must record metrics into a per-task registry (use
    {!map_runs}), never into {!Obs.Metrics.global}.  Under that contract,
    [map ~jobs:n] returns the exact array [map ~jobs:1] returns. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the [-j] default of the CLIs. *)

val map : jobs:int -> int -> (int -> 'a) -> 'a array
(** [map ~jobs n f] evaluates [f i] for each [i] in [0..n-1] on up to
    [jobs] domains (the calling domain included) and returns the results
    indexed by task.  [jobs <= 1], [n <= 1] and nested or concurrent
    calls run sequentially, in index order, on the calling domain.  If
    task [i] raises, no task above [i] starts (started ones finish) while
    every task below [i] still runs, so the exception re-raised — with
    its backtrace — is always that of the lowest-index failing task.
    @raise Invalid_argument if [n < 0]. *)

val iter : jobs:int -> int -> (int -> unit) -> unit

val map_runs :
  jobs:int ->
  metrics:Obs.Metrics.t ->
  int ->
  (metrics:Obs.Metrics.t -> int -> 'a) ->
  'a array
(** Like {!map}, but hands each task a fresh private metric registry and
    folds the per-task registries into [metrics], in task order, with
    {!Obs.Metrics.merge}: task [i]'s registry is merged as soon as tasks
    [0..i] have all finished, on whichever domain finished the last of
    them, and is dropped once merged, so a long battery holds only the
    registries of tasks that ran ahead of a slower lower-index one rather
    than all [n] until the call returns.  Merges are serialized, and the
    fold order (hence the merged registry) is independent of [jobs].
    This is the only sanctioned way for parallel tasks to feed an
    experiment's snapshot/delta measurement; nothing else may touch
    [metrics] while the call runs.

    If task [k] is the lowest-index task that raises, [map_runs]
    re-raises its exception (as {!map} does) and [metrics] then holds
    exactly the merge of tasks [0..k-1], at any [jobs].
    @raise Invalid_argument if [n < 0], as {!map} does. *)
