(* Allocation ceilings, counted with [Gc.minor_words]: on OCaml 5.1 the
   minor count of [Gc.counters] moves only at a minor collection, so a
   short loop would read far too low.  Minor words depend on the
   compiler, so tests hold them to ceilings about 1.5x above what they
   measure, never to exact figures. *)

(* Minor words per call of [f], averaged over [n] calls after one
   warm-up call. *)
let words_per_call ?(n = 1000) f =
  ignore (Sys.opaque_identity (f ()));
  let before = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. before) /. float_of_int n

(* Minor plus major words per call of [f], as [words_per_call] counts
   them: an array over 256 words goes straight to the major heap, where
   [Gc.minor_words] does not see it.  A minor collection first promotes
   what the caller built, so only the loop's own promotions count; they
   count twice, so this reads high, never low. *)
let heap_words_per_call ?(n = 1000) f =
  let words () = Gc.minor_words () +. (Gc.quick_stat ()).major_words in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor ();
  let before = words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (f ()))
  done;
  (words () -. before) /. float_of_int n

(* Minor words per unit of [counter] in one steady-state [pass]: a
   warm-up pass runs first into the same registry, so lazy set-up and
   the registry's own cells are not counted. *)
let words_per ~counter pass =
  let m = Obs.Metrics.create () in
  pass m;
  let units = Obs.Metrics.counter m counter in
  let before = Gc.minor_words () in
  pass m;
  let words = Gc.minor_words () -. before in
  words /. float_of_int (Obs.Metrics.counter m counter - units)

let at_most what ceiling words =
  if words > ceiling then
    Alcotest.failf "%s: %.2f words (at most %g)" what words ceiling

let histories spec gen ~count ~seed =
  let rand = Random.State.make [| 0x5EED; seed |] in
  List.init count (fun _ -> gen spec rand)

(* The cost ledger's decide inputs (bench/ledger.ml): atomic histories,
   where the DFS finds a witness, and arbitrary ones, where it must often
   exhaust the state space through its memo. *)
let decide_histories () =
  let spec = Core.Histgen.default_spec in
  histories { spec with n_ops = 14; n_procs = 4 } Core.Histgen.atomic_history
    ~count:12 ~seed:1
  @ histories
      { spec with n_ops = 12; n_procs = 4 }
      Core.Histgen.arbitrary_history ~count:12 ~seed:2
