module V = History.Value
module Sched = Simkit.Sched
module Faults = Simkit.Faults

type run = {
  history : History.Hist.t;
  trace : Simkit.Trace.t;
  completed : bool;
  stalled : Sched.stall option;
  steps : int;
}

let check_crashes ~what ~n ~clients crash_nodes =
  if List.length crash_nodes >= (n + 1) / 2 then
    invalid_arg (what ^ ": crash set must be a strict minority");
  List.iter
    (fun c ->
      if c < 0 || c >= n then invalid_arg (what ^ ": crash node out of range");
      if List.mem c clients then
        invalid_arg (what ^ ": crashed nodes cannot be clients"))
    crash_nodes

let validate_crash_schedule ?(recoveries = []) ~what ~n ~clients schedule =
  check_crashes ~what ~n ~clients
    (List.sort_uniq Int.compare (List.map snd schedule));
  (* recoveries must pair with crashes (per-node alternation, crash
     first): borrowing Faults.validate rejects recoveries of
     never-crashed nodes and recover-before-crash schedules *)
  if recoveries <> [] then
    try
      Faults.validate
        { Faults.none with Faults.crash_at = schedule; recover_at = recoveries }
    with Invalid_argument msg ->
      invalid_arg (Printf.sprintf "%s: %s" what msg)

(* ----- re-runnable configs ---------------------------------------------------- *)

(* One record capturing everything a run depends on — protocol, workload
   shape, fault plan, crash schedule (inside the plan), scheduler policy,
   seeds, step budget, and the test-only quorum override.  The chaos
   search explores this space, the shrinker minimizes within it, and the
   regression corpus serializes it, so [execute_config] on an equal config
   is byte-for-byte the same run whatever found it. *)

module Config = struct
  type proto = Sw | Mw

  type t = {
    proto : proto;
    n : int;
    writers : int list;
    writes_each : int;
    readers : int list;
    reads_each : int;
    faults : Faults.plan;
    seed : int64;
    policy : [ `Random | `Round_robin ];
    max_steps : int option;
    quorum : int option;
    persist : [ `Every | `Never ];
    unsafe_recovery : bool;
    (* per-destination delivery batching (Net.set_batching); window 0 /
       max 1 = disabled, the byte-identical pre-batching behaviour *)
    batch_window : int;
    batch_max : int;
  }

  let default =
    {
      proto = Sw;
      n = 5;
      writers = [ 0 ];
      writes_each = 3;
      readers = [ 1; 2 ];
      reads_each = 2;
      faults = Faults.none;
      seed = 1L;
      policy = `Random;
      max_steps = None;
      quorum = None;
      persist = `Every;
      unsafe_recovery = false;
      batch_window = 0;
      batch_max = 1;
    }

  let auto_max_steps c =
    let ops =
      (List.length c.writers * c.writes_each)
      + (List.length c.readers * c.reads_each)
    in
    (max 1 ops * c.n * 800)
    + (2_000 * List.length c.faults.Faults.recover_at)

  let obj c = match c.proto with Sw -> "ABD" | Mw -> "MW"

  let validate c =
    let bad msg = invalid_arg ("Runs.Config: " ^ msg) in
    if c.n < 2 || c.n >= 100 then bad "n must be in [2, 100)";
    (match c.proto with
    | Sw ->
        if List.length c.writers <> 1 then bad "Sw takes exactly one writer"
    | Mw -> if c.writers = [] then bad "Mw needs at least one writer");
    if c.writes_each < 1 then bad "writes_each must be >= 1";
    if c.reads_each < 0 then bad "reads_each must be >= 0";
    let clients = c.writers @ c.readers in
    if
      List.length (List.sort_uniq Int.compare clients) <> List.length clients
    then bad "writers and readers must be distinct nodes";
    List.iter
      (fun p -> if p < 0 || p >= c.n then bad "client node out of range")
      clients;
    Faults.validate c.faults;
    check_crashes ~what:"Runs.Config" ~n:c.n ~clients
      (List.sort_uniq Int.compare (List.map snd c.faults.Faults.crash_at));
    (match c.quorum with
    | Some q when q < 1 || q > c.n -> bad "quorum out of range"
    | _ -> ());
    if c.batch_window < 0 then bad "batch_window must be >= 0";
    if c.batch_max < 1 then bad "batch_max must be >= 1";
    match c.max_steps with
    | Some m when m < 1 -> bad "max_steps must be >= 1"
    | _ -> ()

  let json c =
    let int_list xs = Obs.Json.List (List.map (fun i -> Obs.Json.Int i) xs) in
    Obs.Json.Obj
      ([
         ("kind", Obs.Json.Str "chaos_config");
        ( "proto",
          Obs.Json.Str (match c.proto with Sw -> "abd" | Mw -> "mwabd") );
        ("n", Obs.Json.Int c.n);
        ("writers", int_list c.writers);
        ("writes_each", Obs.Json.Int c.writes_each);
        ("readers", int_list c.readers);
        ("reads_each", Obs.Json.Int c.reads_each);
        ("faults", Faults.plan_json c.faults);
        ("seed", Obs.Json.Str (Int64.to_string c.seed));
        ( "policy",
          Obs.Json.Str
            (match c.policy with
            | `Random -> "random"
            | `Round_robin -> "round_robin") );
        ( "max_steps",
          match c.max_steps with
          | Some m -> Obs.Json.Int m
          | None -> Obs.Json.Null );
        ( "quorum",
          match c.quorum with
          | Some q -> Obs.Json.Int q
          | None -> Obs.Json.Null );
        ( "persist",
          Obs.Json.Str
            (match c.persist with `Every -> "every" | `Never -> "never") );
        ("unsafe_recovery", Obs.Json.Bool c.unsafe_recovery);
      ]
      (* only when enabled: configs recorded before batching existed —
         and unbatched configs today — serialize exactly as before, so
         the committed corpus keeps replaying verbatim *)
      @
      if c.batch_window > 0 || c.batch_max > 1 then
        [
          ("batch_window", Obs.Json.Int c.batch_window);
          ("batch_max", Obs.Json.Int c.batch_max);
        ]
      else [])

  let of_json j =
    let module J = Obs.Json in
    let ( let* ) = Result.bind in
    let one_of names v =
      Option.bind (J.to_string_opt v) (fun s -> List.assoc_opt s names)
    in
    let ints = J.list_of J.to_int_opt in
    let some_int v = Option.map Option.some (J.to_int_opt v) in
    let* c =
      Result.map_error (( ^ ) "Runs.Config.of_json: ")
        (let* proto =
           J.field "proto" (one_of [ ("abd", Sw); ("mwabd", Mw) ]) j
         in
         let* n = J.field "n" J.to_int_opt j in
         let* writers = J.field "writers" ints j in
         let* writes_each = J.field "writes_each" J.to_int_opt j in
         let* readers = J.field "readers" ints j in
         let* reads_each = J.field "reads_each" J.to_int_opt j in
         let* faults =
           Result.bind (J.field "faults" Option.some j) Faults.plan_of_json
         in
         let* seed =
           J.field "seed"
             (fun v -> Option.bind (J.to_string_opt v) Int64.of_string_opt)
             j
         in
         let* policy =
           J.field "policy"
             (one_of [ ("random", `Random); ("round_robin", `Round_robin) ])
             j
         in
         let* max_steps = J.field_or "max_steps" None some_int j in
         let* quorum = J.field_or "quorum" None some_int j in
         (* absent in pre-recovery corpus entries: default to the safe
            knobs *)
         let* persist =
           J.field_or "persist" `Every
             (one_of [ ("every", `Every); ("never", `Never) ])
             j
         in
         let* unsafe_recovery =
           J.field_or "unsafe_recovery" false J.to_bool_opt j
         in
         (* absent in pre-batching entries (and in unbatched ones, which
            omit the keys): default to disabled *)
         let* batch_window = J.field_or "batch_window" 0 J.to_int_opt j in
         let* batch_max = J.field_or "batch_max" 1 J.to_int_opt j in
         Ok
           {
             proto;
             n;
             writers;
             writes_each;
             readers;
             reads_each;
             faults;
             seed;
             policy;
             max_steps;
             quorum;
             persist;
             unsafe_recovery;
             batch_window;
             batch_max;
           })
    in
    match validate c with
    | () -> Ok c
    | exception Invalid_argument msg -> Error msg
end

(* ----- the register-group driver ---------------------------------------------- *)

(* Everything an ABD or MW-ABD group run shares, whoever drives its
   clients: a [Config.t]'s run and every fleet shard go through here, so
   the fault draws and the schedule are one function of the seed. *)
let drive_group ?metrics ?tracer ?sink ~name ~compact (c : Config.t) workload =
  let sched = Sched.create ~seed:c.seed ?metrics ?tracer ?sink () in
  Fun.protect ~finally:(fun () -> Sched.dispose sched) @@ fun () ->
  (* The fault policy draws from its own stream, derived from — but
     independent of — the scheduler seed, so adding faults never perturbs
     the scheduling/delivery randomness of the benign part of a run. *)
  let fpolicy =
    if Faults.is_benign c.faults then None
    else Some (Faults.create ~seed:(Int64.logxor c.seed 0xFA17FA17L) c.faults)
  in
  let drive (type r) (module R : Replica.S with type t = r) (reg : r) ~write =
    let net = R.net reg in
    let crash node = R.crash_node reg ~node in
    let recover node = R.recover_node reg ~node in
    Option.iter (Net.set_faults net) fpolicy;
    Net.set_batching net ~window:c.batch_window ~max:c.batch_max;
    let is_done =
      workload sched ~write ~read:(fun pid -> ignore (R.read reg ~reader:pid))
    in
    let rng = Simkit.Rng.create (Int64.logxor c.seed 0x7E57AB1EL) in
    let pick =
      match c.policy with
      | `Random -> Sched.random_policy rng
      | `Round_robin -> Sched.round_robin
    in
    (* the done-check goes first: a fleet recycles its finished sessions
       there, and crashes never touch a client fiber *)
    let base s =
      let finished = is_done () in
      (match fpolicy with
      | Some f ->
          let step = Sched.steps sched in
          List.iter crash (Faults.crashes_due f ~step);
          List.iter recover (Faults.recoveries_due f ~step)
      | None -> ());
      if finished then Sched.Halt else pick s
    in
    let policy = Net.auto_deliver_policy net ~rng base in
    let max_steps =
      match c.max_steps with Some m -> m | None -> Config.auto_max_steps c
    in
    match Sched.run sched ~watchdog:(Net.watchdog net) ~policy ~max_steps with
    | steps -> (Sched.trace sched, steps, None)
    | exception Sched.Stalled diag ->
        (Sched.trace sched, Sched.steps sched, Some diag)
  in
  match c.proto with
  | Config.Sw ->
      let reg =
        Abd.create ?quorum:c.quorum ~persist:c.persist
          ~unsafe_recovery:c.unsafe_recovery ~compact ~sched ~name ~n:c.n
          ~writer:(List.hd c.writers) ~init:0 ()
      in
      drive (module Abd) reg ~write:(fun _ v -> Abd.write reg v)
  | Config.Mw ->
      let reg =
        Mwabd.create ?quorum:c.quorum ~persist:c.persist
          ~unsafe_recovery:c.unsafe_recovery ~compact ~sched ~name ~n:c.n
          ~init:0 ()
      in
      drive (module Mwabd) reg ~write:(fun pid v -> Mwabd.write reg ~proc:pid v)

let execute_config ?metrics ?tracer (c : Config.t) =
  Config.validate c;
  let remaining = ref (List.length c.writers + List.length c.readers) in
  let clients sched ~write ~read =
    let spawn pid k op =
      Sched.spawn sched ~pid (fun () ->
          for i = 1 to k do
            op i
          done;
          decr remaining)
    in
    let value w k =
      match c.proto with Config.Sw -> 100 + k | Mw -> (1000 * (w + 1)) + k
    in
    List.iter (fun w -> spawn w c.writes_each (fun k -> write w (value w k)))
      c.writers;
    List.iter (fun r -> spawn r c.reads_each (fun _ -> read r)) c.readers;
    fun () -> !remaining = 0
  in
  let trace, steps, stalled =
    drive_group ?metrics ?tracer ~name:(Config.obj c) ~compact:false c clients
  in
  {
    history =
      History.Hist.project (Simkit.Trace.history trace) ~obj:(Config.obj c);
    trace;
    completed = !remaining = 0;
    stalled;
    steps;
  }

let check ?metrics run =
  if not run.completed then
    Error
      (match run.stalled with
      | None -> "run did not complete"
      | Some diag -> "run stalled: " ^ Sched.stall_message diag)
  else if not (Linchk.Lincheck.check ?metrics ~init:(V.Int 0) run.history) then
    Error "history is not linearizable"
  else
    match Linchk.Fstar.wsl_function ?metrics ~init:(V.Int 0) run.history with
    | Ok _ -> Ok ()
    | Error e -> Error ("f* write-prefix property failed: " ^ e)
