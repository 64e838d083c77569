(* The slot table: one slot per spawned pid, sorted by pid.  [spawn]
   inserts in pid order (an O(n) copy; spawns are rare), and [restart]
   and [recycle] overwrite a slot in place, so the table only grows with
   the set of pids, never with the number of occupants.  A lookup is a
   binary search that builds no option, and the policies walk the live
   slots with [live_count]/[live_nth] instead of building a list: a
   scheduling decision allocates only its [Step] box. *)
type slot = {
  pid : int;
  mutable fiber : Fiber.t;
  mutable crashed : bool;
  mutable inc : int; (* incarnation: how often the pid was restarted *)
}

type t = {
  tr : Trace.t;
  rng_ : Rng.t;
  mutable slots : slot array; (* ascending pid *)
  mutable rr_cursor : int;
  mutable steps_ : int;
  metrics_ : Obs.Metrics.t;
  tracer_ : Obs.Tracer.t;
  (* metric handles, resolved once at creation (hot-path discipline) *)
  spawns_c : Obs.Metrics.Counter.t;
  steps_c : Obs.Metrics.Counter.t;
  crashes_c : Obs.Metrics.Counter.t;
  restarts_c : Obs.Metrics.Counter.t;
  recycles_c : Obs.Metrics.Counter.t;
  coins_c : Obs.Metrics.Counter.t;
  runs_c : Obs.Metrics.Counter.t;
  watchdog_c : Obs.Metrics.Counter.t;
  run_steps_h : Obs.Metrics.Hist.t;
}

let create ?(seed = 1L) ?(metrics = Obs.Metrics.create ())
    ?(tracer = Obs.Tracer.null) ?sink () =
  {
    tr = Trace.create ~metrics ?sink ();
    rng_ = Rng.create seed;
    slots = [||];
    rr_cursor = 0;
    steps_ = 0;
    metrics_ = metrics;
    tracer_ = tracer;
    spawns_c = Obs.Metrics.counter_h metrics "sched.spawns";
    steps_c = Obs.Metrics.counter_h metrics "sched.steps";
    crashes_c = Obs.Metrics.counter_h metrics "sched.crashes";
    restarts_c = Obs.Metrics.counter_h metrics "sched.restarts";
    recycles_c = Obs.Metrics.counter_h metrics "sched.recycles";
    coins_c = Obs.Metrics.counter_h metrics "sched.coins";
    runs_c = Obs.Metrics.counter_h metrics "sched.runs";
    watchdog_c = Obs.Metrics.counter_h metrics "sched.watchdog.fired";
    run_steps_h = Obs.Metrics.hist_h metrics "sched.run.steps";
  }

let trace t = t.tr
let rng t = t.rng_
let now t = Trace.now t.tr
let steps t = t.steps_
let metrics t = t.metrics_
let tracer t = t.tracer_

(* binary search over [slots.(lo .. hi-1)]: the index of [pid]'s slot, or
   -1.  Top-level and closure-free, so a lookup allocates nothing. *)
let rec search slots pid lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let p = slots.(mid).pid in
    if p = pid then mid
    else if p < pid then search slots pid (mid + 1) hi
    else search slots pid lo mid

let index t pid = search t.slots pid 0 (Array.length t.slots)

let slot t pid =
  let i = index t pid in
  if i < 0 then invalid_arg (Printf.sprintf "Sched: unknown pid %d" pid);
  t.slots.(i)

let spawn t ~pid f =
  if index t pid >= 0 then
    invalid_arg (Printf.sprintf "Sched.spawn: duplicate pid %d" pid);
  Obs.Metrics.incr_h t.spawns_c;
  if Obs.Tracer.armed t.tracer_ then
    ignore
      (Obs.Tracer.emit t.tracer_ ~track:pid ~parent:(-1) ~sim:t.steps_
         ~cat:"sched" "spawn");
  let s = { pid; fiber = Fiber.spawn ~pid f; crashed = false; inc = 0 } in
  let old = t.slots in
  let k = ref (Array.length old) in
  while !k > 0 && old.(!k - 1).pid > pid do
    decr k
  done;
  let k = !k in
  t.slots <-
    Array.init
      (Array.length old + 1)
      (fun i -> if i < k then old.(i) else if i = k then s else old.(i - 1))

let pids t = Array.fold_right (fun s acc -> s.pid :: acc) t.slots []
let status t ~pid = Fiber.status (slot t pid).fiber

let crashed t ~pid =
  let i = index t pid in
  i >= 0 && t.slots.(i).crashed

let live s = (not s.crashed) && Fiber.is_runnable s.fiber

let runnable t ~pid = live (slot t pid)

let live_count t =
  let c = ref 0 in
  for i = 0 to Array.length t.slots - 1 do
    if live t.slots.(i) then incr c
  done;
  !c

let rec nth_live slots i k =
  if i >= Array.length slots then
    invalid_arg "Sched.live_nth: index out of range"
  else if not (live slots.(i)) then nth_live slots (i + 1) k
  else if k = 0 then slots.(i).pid
  else nth_live slots (i + 1) (k - 1)

let live_nth t k =
  if k < 0 then invalid_arg "Sched.live_nth: index out of range";
  nth_live t.slots 0 k

let live_pids t = List.filter (fun pid -> runnable t ~pid) (pids t)

let step t ~pid =
  let s = slot t pid in
  if s.crashed then
    invalid_arg (Printf.sprintf "Sched.step: pid %d has crashed" pid);
  if not (Fiber.is_runnable s.fiber) then
    invalid_arg (Printf.sprintf "Sched.step: pid %d is not runnable" pid);
  Obs.Metrics.incr_h t.steps_c;
  t.steps_ <- t.steps_ + 1;
  if Obs.Tracer.armed t.tracer_ then
    ignore
      (Obs.Tracer.emit t.tracer_ ~track:pid ~parent:(-1) ~sim:t.steps_
         ~cat:"sched" "step");
  match Fiber.step s.fiber with
  | Fiber.Failed e -> raise e
  | st -> st

let crash t ~pid =
  let s = slot t pid in
  if not s.crashed then begin
    s.crashed <- true;
    Obs.Metrics.incr_h t.crashes_c;
    if Obs.Tracer.armed t.tracer_ then
      ignore
        (Obs.Tracer.emit t.tracer_ ~track:pid ~parent:(-1) ~sim:t.steps_
           ~cat:"sched" "crash");
    Trace.note t.tr ~tag:"crash" ~text:(Printf.sprintf "p%d" pid)
  end

let incarnation t ~pid =
  let i = index t pid in
  if i < 0 then 0 else t.slots.(i).inc

let restart t ~pid f =
  let s = slot t pid in
  if not s.crashed then
    invalid_arg (Printf.sprintf "Sched.restart: pid %d has not crashed" pid);
  s.crashed <- false;
  Fiber.discard s.fiber;
  s.fiber <- Fiber.spawn ~pid f;
  s.inc <- s.inc + 1;
  let inc = s.inc in
  Obs.Metrics.incr_h t.restarts_c;
  if Obs.Tracer.armed t.tracer_ then
    ignore
      (Obs.Tracer.emit t.tracer_ ~track:pid ~parent:(-1)
         ~args:[ ("incarnation", Obs.Json.Int inc) ]
         ~sim:t.steps_ ~cat:"sched" "recover");
  Trace.note t.tr ~tag:"recover" ~text:(Printf.sprintf "p%d i%d" pid inc);
  inc

(* Generational slot reuse: replace a finished fiber with fresh code at
   the same pid.  Unlike [spawn] this grows no table (the slot is
   overwritten in place), and unlike [restart] it bumps no incarnation —
   the slot's previous occupant terminated normally, so there is no
   pre-crash ghost for the network to reject.  This is what lets a fleet
   run millions of short-lived client sessions through a fixed set of
   fiber slots with flat scheduler memory. *)
let recycle t ~pid f =
  let s = slot t pid in
  (match Fiber.status s.fiber with
  | Fiber.Finished -> ()
  | Fiber.Runnable | Fiber.Failed _ ->
      invalid_arg (Printf.sprintf "Sched.recycle: pid %d has not finished" pid));
  if s.crashed then
    invalid_arg (Printf.sprintf "Sched.recycle: pid %d has crashed" pid);
  s.fiber <- Fiber.spawn ~pid f;
  Obs.Metrics.incr_h t.recycles_c;
  if Obs.Tracer.armed t.tracer_ then
    ignore
      (Obs.Tracer.emit t.tracer_ ~track:pid ~parent:(-1) ~sim:t.steps_
         ~cat:"sched" "recycle")

let dispose t = Array.iter (fun s -> Fiber.discard s.fiber) t.slots

let coin t ~proc =
  let v = Rng.coin t.rng_ in
  Obs.Metrics.incr_h t.coins_c;
  if Obs.Tracer.armed t.tracer_ then
    ignore
      (Obs.Tracer.emit t.tracer_ ~track:proc ~parent:(-1)
         ~args:[ ("value", Obs.Json.Int v) ]
         ~sim:t.steps_ ~cat:"sched" "coin");
  Trace.coin t.tr ~proc ~value:v;
  v

type decision = Step of int | Halt
type policy = t -> decision

type stall = {
  window : int;
  total_steps : int;
  fibers : (int * string * bool) list;
  detail : string;
}

exception Stalled of stall

type watchdog = {
  window : int;
  progress : unit -> int;
  describe : unit -> string;
}

let stall_report t w =
  {
    window = w.window;
    total_steps = t.steps_;
    fibers =
      List.map
        (fun pid ->
          ( pid,
            (match status t ~pid with
            | Fiber.Runnable -> "runnable"
            | Fiber.Finished -> "finished"
            | Fiber.Failed _ -> "failed"),
            crashed t ~pid ))
        (pids t);
    detail = w.describe ();
  }

let stall_message (s : stall) =
  let b = Buffer.create 256 in
  Printf.bprintf b
    "scheduler watchdog: no progress for %d steps (total steps %d)\nfibers:\n"
    s.window s.total_steps;
  List.iter
    (fun (pid, status, crashed) ->
      Printf.bprintf b "  p%d: %s%s\n" pid status
        (if crashed then " (crashed)" else ""))
    s.fibers;
  if s.detail <> "" then Printf.bprintf b "%s\n" s.detail;
  Buffer.contents b

let stall_json (s : stall) =
  Obs.Json.Obj
    [
      ("kind", Obs.Json.Str "stall");
      ("window", Obs.Json.Int s.window);
      ("total_steps", Obs.Json.Int s.total_steps);
      ( "fibers",
        Obs.Json.List
          (List.map
             (fun (pid, status, crashed) ->
               Obs.Json.Obj
                 [
                   ("pid", Obs.Json.Int pid);
                   ("status", Obs.Json.Str status);
                   ("crashed", Obs.Json.Bool crashed);
                 ])
             s.fibers) );
      ("detail", Obs.Json.Str s.detail);
    ]

let run ?watchdog t ~policy ~max_steps =
  let steps = ref 0 in
  let continue_ = ref true in
  (* watchdog state: the progress value at the last window boundary *)
  let last_progress =
    ref (match watchdog with Some w -> w.progress () | None -> 0)
  in
  let since = ref 0 in
  Obs.Metrics.incr_h t.runs_c;
  while !continue_ && !steps < max_steps do
    if live_count t = 0 then continue_ := false
    else
      match policy t with
      | Halt -> continue_ := false
      | Step pid ->
          ignore (step t ~pid);
          incr steps;
          (match watchdog with
          | None -> ()
          | Some w ->
              incr since;
              if !since >= w.window then begin
                let p = w.progress () in
                if p = !last_progress then begin
                  Obs.Metrics.incr_h t.watchdog_c;
                  Obs.Metrics.observe_h t.run_steps_h (float_of_int !steps);
                  if Obs.Tracer.armed t.tracer_ then
                    ignore
                      (Obs.Tracer.emit t.tracer_ ~parent:(-1)
                         ~args:[ ("window", Obs.Json.Int w.window) ]
                         ~sim:t.steps_ ~cat:"sched" "watchdog");
                  let report = stall_report t w in
                  Trace.note t.tr ~tag:"watchdog"
                    ~text:
                      (Printf.sprintf "stalled after %d steps without progress"
                         w.window);
                  raise (Stalled report)
                end;
                last_progress := p;
                since := 0
              end)
  done;
  Obs.Metrics.observe_h t.run_steps_h (float_of_int !steps);
  !steps

let round_robin t =
  let n = live_count t in
  if n = 0 then Halt
  else begin
    let pid = live_nth t (t.rr_cursor mod n) in
    t.rr_cursor <- t.rr_cursor + 1;
    Step pid
  end

let random_policy rng t =
  let n = live_count t in
  if n = 0 then Halt else Step (live_nth t (Rng.int rng n))

let scripted script =
  let remaining = ref script in
  fun t ->
    let rec next () =
      match !remaining with
      | [] -> Halt
      | pid :: rest ->
          remaining := rest;
          if runnable t ~pid then Step pid else next ()
    in
    next ()
