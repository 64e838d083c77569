(* The repo's one parallel runner: tasks are indices 0..n-1 claimed from a
   shared atomic cursor, so domains that finish early take the remaining
   work automatically.  Worker domains are spawned once, lazily, and park
   on a Mutex/Condition between calls; each call publishes one job, runs
   it on the calling domain too, and waits for the workers that joined.
   No dependencies beyond the stdlib (Domain / Atomic / Mutex /
   Condition); [jobs <= 1] runs the same claim loop on the calling domain
   alone. *)

let default_jobs () = Domain.recommended_domain_count ()

(* ----- the minor heap ------------------------------------------------------ *)

(* 64k words (512 KB) instead of the runtime's 256k: the simulator paths
   allocate about 10x less than when that default was set, and the
   smaller heap takes about 1.5 MB off each domain's share of the peak,
   for about 3x as many minor collections (DESIGN.md §12).  On OCaml
   5.1.1 a domain starts with the OCAMLRUNPARAM size whatever its parent
   set, so each domain that runs a task sets its own: a worker when it
   starts, the caller when it enters [fold_runs]. *)
let minor_heap_words = 65_536

(* the runtime reads the entry "s=SIZE" of a comma-separated list *)
let runparam_sets_minor_heap v =
  List.exists
    (fun e -> String.length e >= 2 && e.[0] = 's' && e.[1] = '=')
    (String.split_on_char ',' v)

(* Read once, at initialisation, into a plain value: two domains may
   enter [fold_runs] at once, and a [Lazy] forced by both may raise
   [Lazy.Undefined] in one of them. *)
let runparam_fixes_minor_heap =
  let set_by var =
    Option.fold ~none:false ~some:runparam_sets_minor_heap (Sys.getenv_opt var)
  in
  set_by "OCAMLRUNPARAM" || set_by "CAMLRUNPARAM"

let right_size_minor_heap () =
  if not runparam_fixes_minor_heap then
    let gc = Gc.get () in
    if gc.minor_heap_size <> minor_heap_words then
      Gc.set { gc with minor_heap_size = minor_heap_words }

(* How many indices one fetch_and_add claims.  Whole-simulation tasks
   (milliseconds each) amortize a single atomic trivially, but fleet-
   scale batteries fan out millions of tiny tasks — there the cursor
   line bounces between every domain on every task.  Claiming a short
   run per CAS divides that traffic by [chunk] while bounding the load
   imbalance a straggler can cause at the tail to [chunk - 1] tasks. *)
let chunk_for ~jobs n =
  if n <= jobs * 8 then 1 else Stdlib.min 64 (n / (jobs * 8))

(* ----- the parked workers ------------------------------------------------ *)

(* One process-wide set of workers.  [work] is the published job (a claim
   loop that never raises); [seats] is how many more workers may join it
   and [running] how many are inside it.  Joining a job twice is harmless:
   its cursor is exhausted, so the second pass returns at once. *)
type workers = {
  lock : Mutex.t;
  wake : Condition.t;  (* seats opened *)
  idle : Condition.t;  (* running fell to 0 *)
  mutable work : unit -> unit;
  mutable seats : int;
  mutable running : int;
  mutable spawned : int;
}

let w =
  {
    lock = Mutex.create ();
    wake = Condition.create ();
    idle = Condition.create ();
    work = ignore;
    seats = 0;
    running = 0;
    spawned = 0;
  }

(* Held by the one domain whose call owns the workers; any other call —
   nested inside a task, or racing from another domain — runs inline. *)
let busy = Atomic.make false

let worker () =
  right_size_minor_heap ();
  Mutex.lock w.lock;
  while true do
    while w.seats = 0 do
      Condition.wait w.wake w.lock
    done;
    w.seats <- w.seats - 1;
    w.running <- w.running + 1;
    let work = w.work in
    Mutex.unlock w.lock;
    (try work () with _ -> ());
    Mutex.lock w.lock;
    w.running <- w.running - 1;
    if w.running = 0 then Condition.signal w.idle
  done

(* Never more workers than the machine has spare cores: every minor
   collection stops every domain, a parked one included (its backup
   thread answers the interrupt), so each surplus parked domain taxes all
   later allocation — 6 parked domains on 2 cores made a 20M-allocation
   loop 7.7x slower.  Results are jobs-invariant, so the clamp changes
   only timing. *)
let max_workers = default_jobs () - 1

(* Run [work] on the calling domain and on up to [helpers] workers; only
   the owner of [busy] calls this, so [spawned] needs no lock. *)
let run_job ~helpers work =
  let helpers = Stdlib.min helpers max_workers in
  while w.spawned < helpers do
    ignore (Domain.spawn worker : unit Domain.t);
    w.spawned <- w.spawned + 1
  done;
  (* backtrace recording is per domain: workers follow the caller's
     setting, so a task that raises on a worker keeps its backtrace *)
  let record = Printexc.backtrace_status () in
  Mutex.lock w.lock;
  w.work <-
    (fun () ->
      Printexc.record_backtrace record;
      work ());
  w.seats <- helpers;
  for _ = 1 to helpers do
    Condition.signal w.wake
  done;
  Mutex.unlock w.lock;
  Fun.protect work ~finally:(fun () ->
      Mutex.lock w.lock;
      w.seats <- 0;
      while w.running > 0 do
        Condition.wait w.idle w.lock
      done;
      (* drop the job so its results are not kept alive until the next *)
      w.work <- ignore;
      Mutex.unlock w.lock)

(* ----- the fold ------------------------------------------------------------ *)

(* One claim loop serves every call.  Tasks are claimed from [next];
   [failed] is the lowest index that has raised so far ([n] while none
   has), and a task runs only while its index is below it, so every task
   below the lowest failing index runs whatever the schedule, and that
   index's exception is the one re-raised.  A finished task is folded —
   its value into the accumulator, then its registry into [metrics] — as
   soon as every lower index is, under [lock], by whichever domain
   finished the last of them; until then it waits in [ahead].  A failed
   task is never folded, so the fold stops there: after a failure at task
   k, [metrics] holds exactly tasks 0..k-1.  A [fold] that raises counts
   as a failure of the task it was folding. *)
let fold_runs ~jobs ~metrics n ~init ~fold f =
  if n < 0 then invalid_arg "Pool.fold_runs: negative task count";
  (* the caller keeps this size on return: restoring its own made the
     next set-up fault a fresh 2 MB heap back in (DESIGN.md §12) *)
  right_size_minor_heap ();
  let owner = jobs > 1 && n > 1 && Atomic.compare_and_set busy false true in
  let jobs = if owner then jobs else 1 in
  let lock = Mutex.create () in
  let next = Atomic.make 0 and failed = Atomic.make n in
  let acc = ref init and folded = ref 0 and error = ref None in
  let ahead = Hashtbl.create 16 in
  (* the rest run under [lock] *)
  let fail i e bt =
    if i < Atomic.get failed then begin
      Atomic.set failed i;
      error := Some (e, bt)
    end
  in
  let rec drain i m v =
    match
      acc := fold !acc v;
      Obs.Metrics.merge ~into:metrics m
    with
    | () -> (
        folded := i + 1;
        match Hashtbl.find_opt ahead !folded with
        | Some (m, v) ->
            Hashtbl.remove ahead !folded;
            drain !folded m v
        | None -> ())
    | exception e -> fail i e (Printexc.get_raw_backtrace ())
  in
  let chunk = chunk_for ~jobs n in
  let rec claim () =
    let start = Atomic.fetch_and_add next chunk in
    if start < Atomic.get failed then begin
      for i = start to Stdlib.min n (start + chunk) - 1 do
        if i < Atomic.get failed then begin
          let m = Obs.Metrics.create () in
          match f ~metrics:m i with
          | v ->
              Mutex.protect lock (fun () ->
                  if i = !folded then drain i m v
                  else Hashtbl.replace ahead i (m, v))
          | exception e ->
              let bt = Printexc.get_raw_backtrace () in
              Mutex.protect lock (fun () -> fail i e bt)
        end
      done;
      claim ()
    end
  in
  if owner then
    Fun.protect
      (fun () -> run_job ~helpers:(Stdlib.min jobs n - 1) claim)
      ~finally:(fun () -> Atomic.set busy false)
  else claim ();
  match !error with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> !acc
