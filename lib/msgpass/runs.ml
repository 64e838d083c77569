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

(* The fault policy draws from its own stream, derived from — but
   independent of — the scheduler seed, so adding faults never perturbs
   the scheduling/delivery randomness of the benign part of a run. *)
let fault_seed seed = Int64.logxor seed 0xFA17FA17L
let policy_seed seed = Int64.logxor seed 0x7E57AB1EL

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

let execute_config ?metrics ?tracer (c : Config.t) =
  Config.validate c;
  let sched = Sched.create ~seed:c.Config.seed ?metrics ?tracer () in
  Fun.protect ~finally:(fun () -> Sched.dispose sched) @@ fun () ->
  let fpolicy =
    if Faults.is_benign c.Config.faults then None
    else Some (Faults.create ~seed:(fault_seed c.Config.seed) c.Config.faults)
  in
  let remaining =
    ref (List.length c.Config.writers + List.length c.Config.readers)
  in
  (* generic over the register: attach faults, spawn the client fibers,
     drive to quiescence under the configured policy *)
  let drive (type r) (module R : Replica.S with type t = r) (reg : r) ~write =
    let net = R.net reg in
    let crash node = R.crash_node reg ~node in
    let recover node = R.recover_node reg ~node in
    Option.iter (Net.set_faults net) fpolicy;
    Net.set_batching net ~window:c.Config.batch_window
      ~max:c.Config.batch_max;
    List.iter
      (fun w ->
        Sched.spawn sched ~pid:w (fun () ->
            for k = 1 to c.Config.writes_each do
              write w k
            done;
            decr remaining))
      c.Config.writers;
    List.iter
      (fun r ->
        Sched.spawn sched ~pid:r (fun () ->
            for _ = 1 to c.Config.reads_each do
              ignore (R.read reg ~reader:r)
            done;
            decr remaining))
      c.Config.readers;
    let rng = Simkit.Rng.create (policy_seed c.Config.seed) in
    let base s =
      (match fpolicy with
      | Some f ->
          let step = Sched.steps sched in
          List.iter crash (Faults.crashes_due f ~step);
          List.iter recover (Faults.recoveries_due f ~step)
      | None -> ());
      if !remaining = 0 then Sched.Halt
      else
        match c.Config.policy with
        | `Random -> Sched.random_policy rng s
        | `Round_robin -> Sched.round_robin s
    in
    let policy = Net.auto_deliver_policy net ~rng base in
    let max_steps =
      match c.Config.max_steps with
      | Some m -> m
      | None -> Config.auto_max_steps c
    in
    let stalled = ref None in
    let steps =
      try Sched.run sched ~watchdog:(Net.watchdog net) ~policy ~max_steps
      with Sched.Stalled diag ->
        stalled := Some diag;
        Sched.steps sched
    in
    {
      history =
        History.Hist.project (Simkit.Trace.history (Sched.trace sched))
          ~obj:(Config.obj c);
      trace = Sched.trace sched;
      completed = !remaining = 0;
      stalled = !stalled;
      steps;
    }
  in
  match c.Config.proto with
  | Config.Sw ->
      let writer = List.hd c.Config.writers in
      let reg =
        Abd.create ?quorum:c.Config.quorum ~persist:c.Config.persist
          ~unsafe_recovery:c.Config.unsafe_recovery ~sched ~name:"ABD"
          ~n:c.Config.n ~writer ~init:0 ()
      in
      drive (module Abd) reg ~write:(fun _ k -> Abd.write reg (100 + k))
  | Config.Mw ->
      let reg =
        Mwabd.create ?quorum:c.Config.quorum ~persist:c.Config.persist
          ~unsafe_recovery:c.Config.unsafe_recovery ~sched ~name:"MW"
          ~n:c.Config.n ~init:0 ()
      in
      drive (module Mwabd) reg ~write:(fun w k ->
          Mwabd.write reg ~proc:w ((1000 * (w + 1)) + k))

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
