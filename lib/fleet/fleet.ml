module V = History.Value
module Sched = Simkit.Sched
module Trace = Simkit.Trace
module Rng = Simkit.Rng
module Faults = Simkit.Faults
module Pool = Simkit.Pool

(* The fleet-scale workload engine (DESIGN.md §17): a key-space of
   register shards, each an independent ABD / MW-ABD group with its own
   scheduler and network, driven by a generational pool of short-lived
   client sessions.  A shard is a Runs.drive_group call — the driver
   behind every ABD run, so faults, crashes, delivery and the watchdog
   are its — with the session pool as the workload.  Shards never share
   mutable state, so they fan out over domains with Pool.fold_runs and
   the whole report is a function of the config alone — byte-identical
   at any [jobs].

   Memory discipline (the 1M+-op requirement): client sessions recycle a
   fixed set of fiber slots (Sched.recycle), the trace keeps no entries
   (its sink streams each history event into the checker as it is
   recorded, or drops it), and each replica's stable log auto-compacts —
   so every structure is bounded by the configuration, not the operation
   count. *)

type proto = Msgpass.Runs.Config.proto = Sw | Mw

type config = {
  shards : int;
  n : int;
  proto : proto;
  slots : int;
  ops : int;
  session_len : int;
  write_ratio : float;
  keys : int;
  faults : Faults.plan;
  persist : [ `Every | `Never ];
  batch_window : int;
  batch_max : int;
  seed : int64;
  sample : int;
}

let default =
  {
    shards = 4;
    n = 3;
    proto = Sw;
    slots = 4;
    ops = 10_000;
    session_len = 4;
    write_ratio = 0.2;
    keys = 64;
    faults = Faults.none;
    persist = `Every;
    batch_window = 0;
    batch_max = 1;
    seed = 1L;
    sample = 1;
  }

let validate c =
  let bad msg = invalid_arg ("Fleet: " ^ msg) in
  if c.shards < 1 then bad "shards must be >= 1";
  if c.n < 2 || c.n >= 100 then bad "n must be in [2, 100)";
  if c.slots < 1 then bad "slots must be >= 1";
  (* client slots live at pids n .. n+slots-1 (plus pid 0, the Sw
     writer); server pids start at 100, so the two ranges must not meet *)
  if c.n + c.slots > 100 then bad "n + slots must be <= 100";
  if c.ops < 1 then bad "ops must be >= 1";
  if c.session_len < 1 then bad "session_len must be >= 1";
  if c.write_ratio < 0. || c.write_ratio > 1. then
    bad "write_ratio must be in [0, 1]";
  if c.keys < 1 then bad "keys must be >= 1";
  if c.sample < 0 || c.sample > c.shards then
    bad "sample must be in [0, shards]";
  if c.batch_window < 0 then bad "batch_window must be >= 0";
  if c.batch_max < 1 then bad "batch_max must be >= 1";
  Faults.validate c.faults;
  (* every shard applies the same plan to its own node set; Sw's writer
     client is node 0's fiber, so node 0 must survive *)
  let clients = match c.proto with Sw -> [ 0 ] | Mw -> [] in
  Msgpass.Runs.validate_crash_schedule
    ~recoveries:c.faults.Faults.recover_at ~what:"Fleet" ~n:c.n ~clients
    c.faults.Faults.crash_at

(* ----- the key space ---------------------------------------------------------- *)

(* key -> shard by a SplitMix64-style finalizer: adjacent keys land on
   avalanche-decorrelated shards, so hot key ranges spread instead of
   pinning one group *)
let shard_of_key ~shards key =
  let z = Int64.add (Int64.of_int key) 0x9E3779B97F4A7C15L in
  let z = Int64.logxor z (Int64.shift_right_logical z 30) in
  let z = Int64.mul z 0xBF58476D1CE4E5B9L in
  let z = Int64.logxor z (Int64.shift_right_logical z 27) in
  let z = Int64.mul z 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_int (Int64.rem (Int64.logand z Int64.max_int) (Int64.of_int shards))

(* operation i carries key (i mod keys); a shard's load is the op count
   of the keys hashing to it.  O(keys) to compute, whatever [ops] is. *)
let ops_per_shard c =
  let per = Array.make c.shards 0 in
  let keys = min c.keys c.ops in
  for k = 0 to keys - 1 do
    let count = (c.ops / keys) + (if k < c.ops mod keys then 1 else 0) in
    let s = shard_of_key ~shards:c.shards k in
    per.(s) <- per.(s) + count
  done;
  per

(* ----- results ---------------------------------------------------------------- *)

type shard = {
  index : int;
  shard_ops : int;  (** operations completed (trace responds) *)
  sessions : int;  (** client sessions driven through the slots *)
  steps : int;
  completed : bool;
  stalled : bool;
  sampled : bool;
  segments : int;  (** streaming-checker verdicts (sampled shards only) *)
  fails : int;
  unknowns : int;
  decided_ops : int;  (** ops inside [Ok_] and [Fail] verdicts *)
  undecided_ops : int;  (** ops inside [Unknown] verdicts *)
  sends : int;
  delivered : int;
  attempts : int;  (** delivery attempts (net.delivery_attempts) *)
  coalesced : int;
  recycles : int;
}

type report = {
  config : config;
  shards_r : shard list;
  total_ops : int;
  total_sessions : int;
  total_steps : int;
  total_attempts : int;
  total_delivered : int;
  total_coalesced : int;
  total_segments : int;
  total_fails : int;
  total_unknowns : int;
  total_decided_ops : int;
  total_undecided_ops : int;
  completed : bool;
}

(* ----- one shard -------------------------------------------------------------- *)

let run_shard ~metrics (c : config) ~index ~ops =
  let seed = Rng.nth_seed c.seed index in
  let name = Printf.sprintf "S%d" index in
  let sampled = index < c.sample in
  let seg =
    if not sampled then None
    else
      Some
        (Serve.Segmenter.create ~metrics ~config:Serve.Segmenter.default_config
           ~obj:name
           ~entry:(Serve.Segmenter.entry_exact [ V.Int 0 ])
           ~index:0 ())
  in
  let segments = ref 0 and fails = ref 0 and unknowns = ref 0 in
  let decided = ref 0 and undecided = ref 0 in
  let note = function
    | None -> ()
    | Some v -> (
        incr segments;
        let ops = v.Serve.Verdict.ops in
        match v.Serve.Verdict.outcome with
        | Serve.Verdict.Ok_ -> decided := !decided + ops
        | Serve.Verdict.Fail ->
            incr fails;
            decided := !decided + ops
        | Serve.Verdict.Unknown _ ->
            incr unknowns;
            undecided := !undecided + ops)
  in
  (* the trace's sink: sampled shards stream each history event into the
     checker as it is recorded, the rest drop every entry, and either way
     the trace keeps none *)
  let sink =
    match seg with
    | None -> ignore
    | Some s -> (
        function
        | Trace.Ev { History.Event.event; time } -> (
            match event with
            | History.Event.Invoke { op_id; kind; _ } -> (
                match Serve.Segmenter.invoke s ~id:op_id ~kind ~time with
                | Ok () | Error _ -> ())
            | History.Event.Respond { op_id; result } -> (
                match Serve.Segmenter.respond s ~id:op_id ~result ~time with
                | Ok v -> note v
                | Error _ -> ()))
        | _ -> ())
  in
  (* slot layout: Sw's writer client is node 0's fiber (Abd.write must
     run there); every other slot lives above the node range so a
     crash_at node never takes a client slot down with it *)
  let slot_pid = function
    | 0 when c.proto = Sw -> 0
    | s -> c.n + (if c.proto = Sw then s - 1 else s)
  in
  (* exact per-slot quotas, fixed up front: Sw sends every write
     through slot 0; Mw deals writes round-robin.  Reads fill the
     remaining capacity round-robin from the last slot backwards, so
     read load spreads even when writes saturate the first slots. *)
  let writes =
    let w = int_of_float (Float.round (c.write_ratio *. float_of_int ops)) in
    max 0 (min ops w)
  in
  let w_left = Array.make c.slots 0 and r_left = Array.make c.slots 0 in
  (match c.proto with
  | Sw -> w_left.(0) <- writes
  | Mw ->
      for i = 0 to writes - 1 do
        let s = i mod c.slots in
        w_left.(s) <- w_left.(s) + 1
      done);
  for i = 0 to ops - writes - 1 do
    let s = c.slots - 1 - (i mod c.slots) in
    r_left.(s) <- r_left.(s) + 1
  done;
  let remaining = Array.init c.slots (fun s -> w_left.(s) + r_left.(s)) in
  (* per-slot op-order RNG (Mw mix): draws happen only in the slot's
     own fiber, so the stream depends on the slot, not the schedule *)
  let slot_rng =
    Array.init c.slots (fun s -> Rng.split (Rng.create (Rng.nth_seed seed s)))
  in
  (* write values cycle through a domain smaller than the segmenter's
     values_cap (64): after an op-cap segment the entry set is the
     domain plus the initial value, still materializable, so one
     Unknown segment never degrades the segments after it *)
  let value_domain = 48 in
  let next_value = ref 0 in
  let sessions = ref 0 in
  let live = ref 0 in
  (* the generational pool: each session is one occupant of a slot; on
     normal termination it queues its slot for recycling, and the
     done-check installs the next session in place — no scheduler
     growth *)
  let clients sched ~write ~read =
    let next_op slot =
      let w = w_left.(slot) > 0 and r = r_left.(slot) > 0 in
      let is_write =
        match c.proto with
        | Sw -> w (* writes first; slot 0 may carry reads after them *)
        | Mw -> if w && r then Rng.float slot_rng.(slot) < c.write_ratio else w
      in
      if is_write then begin
        w_left.(slot) <- w_left.(slot) - 1;
        incr next_value;
        write (slot_pid slot) (1 + ((!next_value - 1) mod value_domain))
      end
      else begin
        r_left.(slot) <- r_left.(slot) - 1;
        read (slot_pid slot)
      end
    in
    let finished = Queue.create () in
    let session slot k () =
      for _ = 1 to k do
        next_op slot
      done;
      incr sessions;
      Queue.push slot finished
    in
    let start_session ~via slot =
      let k = min c.session_len remaining.(slot) in
      remaining.(slot) <- remaining.(slot) - k;
      via (slot_pid slot) (session slot k)
    in
    for slot = 0 to c.slots - 1 do
      if remaining.(slot) > 0 then begin
        incr live;
        start_session ~via:(fun pid f -> Sched.spawn sched ~pid f) slot
      end
    done;
    fun () ->
      while not (Queue.is_empty finished) do
        let slot = Queue.pop finished in
        if remaining.(slot) > 0 then
          start_session ~via:(fun pid f -> Sched.recycle sched ~pid f) slot
        else decr live
      done;
      !live = 0
  in
  let recoveries = List.length c.faults.Faults.recover_at in
  let group =
    {
      Msgpass.Runs.Config.default with
      proto = c.proto;
      n = c.n;
      faults = c.faults;
      persist = c.persist;
      batch_window = c.batch_window;
      batch_max = c.batch_max;
      seed;
      max_steps = Some ((ops * c.n * 800) + (2_000 * recoveries));
    }
  in
  let _, steps, stall =
    Msgpass.Runs.drive_group ~metrics ~sink ~name ~compact:true group clients
  in
  note (Option.bind seg Serve.Segmenter.flush);
  let counter = Obs.Metrics.counter metrics in
  {
    index;
    shard_ops = counter "trace.responds";
    sessions = !sessions;
    steps;
    completed = !live = 0;
    stalled = Option.is_some stall;
    sampled;
    segments = !segments;
    fails = !fails;
    unknowns = !unknowns;
    decided_ops = !decided;
    undecided_ops = !undecided;
    sends = counter "net.sends";
    delivered = counter "net.delivered";
    attempts = counter "net.delivery_attempts";
    coalesced = counter "net.batch.coalesced";
    recycles = counter "sched.recycles";
  }

(* ----- the fleet -------------------------------------------------------------- *)

let run ?(jobs = 1) ?(metrics = Obs.Metrics.global) c =
  validate c;
  let per = ops_per_shard c in
  let shards_r =
    List.rev
      (Pool.fold_runs ~jobs ~metrics c.shards ~init:[]
         ~fold:(fun shards s -> s :: shards)
         (fun ~metrics i -> run_shard ~metrics c ~index:i ~ops:per.(i)))
  in
  let sum f = List.fold_left (fun a s -> a + f s) 0 shards_r in
  {
    config = c;
    shards_r;
    total_ops = sum (fun s -> s.shard_ops);
    total_sessions = sum (fun s -> s.sessions);
    total_steps = sum (fun s -> s.steps);
    total_attempts = sum (fun s -> s.attempts);
    total_delivered = sum (fun s -> s.delivered);
    total_coalesced = sum (fun s -> s.coalesced);
    total_segments = sum (fun s -> s.segments);
    total_fails = sum (fun s -> s.fails);
    total_unknowns = sum (fun s -> s.unknowns);
    total_decided_ops = sum (fun s -> s.decided_ops);
    total_undecided_ops = sum (fun s -> s.undecided_ops);
    completed =
      List.for_all (fun (s : shard) -> s.completed && not s.stalled) shards_r;
  }

(* ----- reporting -------------------------------------------------------------- *)

let config_json c =
  Obs.Json.Obj
    [
      ("kind", Obs.Json.Str "fleet_config");
      ("shards", Obs.Json.Int c.shards);
      ("n", Obs.Json.Int c.n);
      ("proto", Obs.Json.Str (match c.proto with Sw -> "abd" | Mw -> "mwabd"));
      ("slots", Obs.Json.Int c.slots);
      ("ops", Obs.Json.Int c.ops);
      ("session_len", Obs.Json.Int c.session_len);
      ("write_ratio", Obs.Json.Float c.write_ratio);
      ("keys", Obs.Json.Int c.keys);
      ("faults", Faults.plan_json c.faults);
      ( "persist",
        Obs.Json.Str (match c.persist with `Every -> "every" | `Never -> "never")
      );
      ("batch_window", Obs.Json.Int c.batch_window);
      ("batch_max", Obs.Json.Int c.batch_max);
      ("seed", Obs.Json.Str (Int64.to_string c.seed));
      ("sample", Obs.Json.Int c.sample);
    ]

let shard_json s =
  Obs.Json.Obj
    [
      ("index", Obs.Json.Int s.index);
      ("ops", Obs.Json.Int s.shard_ops);
      ("sessions", Obs.Json.Int s.sessions);
      ("steps", Obs.Json.Int s.steps);
      ("completed", Obs.Json.Bool s.completed);
      ("stalled", Obs.Json.Bool s.stalled);
      ("sampled", Obs.Json.Bool s.sampled);
      ("segments", Obs.Json.Int s.segments);
      ("fails", Obs.Json.Int s.fails);
      ("unknowns", Obs.Json.Int s.unknowns);
      ("decided_ops", Obs.Json.Int s.decided_ops);
      ("undecided_ops", Obs.Json.Int s.undecided_ops);
      ("sends", Obs.Json.Int s.sends);
      ("delivered", Obs.Json.Int s.delivered);
      ("attempts", Obs.Json.Int s.attempts);
      ("coalesced", Obs.Json.Int s.coalesced);
      ("recycles", Obs.Json.Int s.recycles);
    ]

(* deliberately no wall-clock field: CI diffs these across [-j] *)
let report_json r =
  Obs.Json.Obj
    [
      ("kind", Obs.Json.Str "fleet_report");
      ("config", config_json r.config);
      ("ops", Obs.Json.Int r.total_ops);
      ("sessions", Obs.Json.Int r.total_sessions);
      ("steps", Obs.Json.Int r.total_steps);
      ("attempts", Obs.Json.Int r.total_attempts);
      ("delivered", Obs.Json.Int r.total_delivered);
      ("coalesced", Obs.Json.Int r.total_coalesced);
      ("segments", Obs.Json.Int r.total_segments);
      ("fails", Obs.Json.Int r.total_fails);
      ("unknowns", Obs.Json.Int r.total_unknowns);
      ("decided_ops", Obs.Json.Int r.total_decided_ops);
      ("undecided_ops", Obs.Json.Int r.total_undecided_ops);
      ("completed", Obs.Json.Bool r.completed);
      ("shards", Obs.Json.List (List.map shard_json r.shards_r));
    ]

(* delivery attempts per quorum operation: the number the batched vs.
   unbatched bench rows compare (batching amortizes quorum round-trips,
   so this drops when coalescing is on) *)
let attempts_per_op r =
  if r.total_ops = 0 then 0.
  else float_of_int r.total_attempts /. float_of_int r.total_ops

let pp fmt r =
  Format.fprintf fmt
    "@[<v>fleet: %d shards x %d nodes (%s), %d ops, %d sessions over %d \
     slots/shard@,\
     steps %d, delivery attempts %d (%.2f/op), coalesced %d@,\
     sampled shards: %d segments, %d fail, %d unknown; decided %d of %d \
     sampled ops@,\
     %s@]"
    r.config.shards r.config.n
    (match r.config.proto with Sw -> "abd" | Mw -> "mwabd")
    r.total_ops r.total_sessions r.config.slots r.total_steps r.total_attempts
    (attempts_per_op r) r.total_coalesced r.total_segments r.total_fails
    r.total_unknowns r.total_decided_ops
    (r.total_decided_ops + r.total_undecided_ops)
    (if r.completed then "all shards completed" else "INCOMPLETE/STALLED")
