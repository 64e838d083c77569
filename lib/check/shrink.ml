module Runs = Msgpass.Runs
module Config = Msgpass.Runs.Config
module Faults = Simkit.Faults

let drop_nth xs i = List.filteri (fun j _ -> j <> i) xs

(* shrink candidates for an int field, most aggressive first: the floor,
   then halfway down, then one off *)
let int_steps v ~floor =
  if v <= floor then []
  else
    List.filter
      (fun x -> x < v)
      (List.sort_uniq Int.compare
         [ floor; floor + ((v - floor) / 2); v - 1 ])

let valid c = match Config.validate c with () -> true | exception _ -> false

(* One round of strictly-simpler neighbours, in a deterministic order:
   fault plan first (probabilities down the ladder, crash schedule by
   subset, partitions by subset), then workload size, then the step
   budget.  Each axis matches ISSUE/DESIGN's shrink lattice. *)
let candidates (c : Config.t) =
  let faults =
    List.map (fun p -> { c with Config.faults = p }) (Faults.shrink_plan c.faults)
  in
  let writes =
    List.map
      (fun w -> { c with Config.writes_each = w })
      (int_steps c.Config.writes_each ~floor:1)
  in
  let reads =
    List.map
      (fun r -> { c with Config.reads_each = r })
      (int_steps c.Config.reads_each ~floor:0)
  in
  let drop_readers =
    List.mapi
      (fun i _ -> { c with Config.readers = drop_nth c.Config.readers i })
      c.Config.readers
  in
  let drop_writers =
    match c.Config.proto with
    | Config.Sw -> []
    | Config.Mw ->
        if List.length c.Config.writers <= 1 then []
        else
          List.mapi
            (fun i _ -> { c with Config.writers = drop_nth c.Config.writers i })
            c.Config.writers
  in
  let budget =
    match c.Config.max_steps with
    | None -> []
    | Some m ->
        List.map
          (fun s -> { c with Config.max_steps = Some s })
          (int_steps m ~floor:1)
  in
  (* batching off first (the single biggest simplification: the repro
     stops depending on coalescing at all), then the window/max down *)
  let batching =
    if c.Config.batch_window = 0 && c.Config.batch_max = 1 then []
    else
      { c with Config.batch_window = 0; batch_max = 1 }
      :: List.map
           (fun w -> { c with Config.batch_window = w })
           (int_steps c.Config.batch_window ~floor:0)
      @ List.map
          (fun m -> { c with Config.batch_max = m })
          (int_steps c.Config.batch_max ~floor:1)
  in
  List.filter valid
    (faults @ batching @ writes @ reads @ drop_readers @ drop_writers @ budget)

type outcome = {
  config : Config.t;  (** the minimal failing config *)
  violation : Monitor.violation;  (** its violation (same monitor) *)
  attempts : int;  (** oracle executions performed *)
  steps : int;  (** accepted reductions *)
  exhausted : bool;  (** stopped on the attempt budget, not a fixpoint *)
}

(* the oracle executions one [minimize] may spend *)
let max_attempts = 400

(* Greedy first-improvement descent: take the first neighbour that still
   trips the SAME monitor, restart from it.  Every oracle call re-executes
   the candidate deterministically from its own seed, so the result
   depends only on (config, violation). *)
let minimize ~violation config =
  let attempts = ref 0 and steps = ref 0 in
  let oracle cand =
    incr attempts;
    match Monitor.run_config cand with
    | Some v when v.Monitor.monitor = violation.Monitor.monitor -> Some v
    | _ -> None
  in
  let rec go c v =
    let rec first = function
      | [] -> (c, v, false)
      | cand :: rest ->
          if !attempts >= max_attempts then (c, v, true)
          else begin
            match oracle cand with
            | Some v' ->
                incr steps;
                go cand v'
            | None -> first rest
          end
    in
    first (candidates c)
  in
  let config, violation, exhausted = go config violation in
  { config; violation; attempts = !attempts; steps = !steps; exhausted }
