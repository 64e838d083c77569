type 'a msg = { src : int; dst : int; payload : 'a }

(* An in-flight message and how often faults already deferred it (the
   reorder-window budget of Simkit.Faults).  [ev] is the flight-recorder
   sequence number of the send event (-1 when tracing is off): deliver
   events cite it as their causal parent, which is the message id that
   gives the exported trace its happens-before edges.  [inc] is the
   sender's incarnation number at send time (Sched.incarnation): it rides
   with the message into the mailbox so a quorum collector can tell a
   pre-crash ghost from a reply by the sender's current incarnation. *)
type 'a item = { m : 'a msg; mutable deferrals : int; ev : int; inc : int }

(* A growable ring buffer over the in-flight messages, oldest first.
   Replaces the previous O(n)-append list: push/length are O(1) and
   [remove i] shifts only the shorter side, while preserving the exact
   index semantics deliver_nth/deliver_one rely on (index i = i-th oldest,
   removal keeps the relative order of the rest). *)
module Dq = struct
  type 'a t = {
    mutable buf : 'a option array;
    mutable head : int; (* slot of the oldest element *)
    mutable len : int;
  }

  let create () = { buf = Array.make 16 None; head = 0; len = 0 }
  let length t = t.len

  let grow t =
    let cap = Array.length t.buf in
    let buf' = Array.make (2 * cap) None in
    for i = 0 to t.len - 1 do
      buf'.(i) <- t.buf.((t.head + i) mod cap)
    done;
    t.buf <- buf';
    t.head <- 0

  let push_back t x =
    if t.len = Array.length t.buf then grow t;
    t.buf.((t.head + t.len) mod Array.length t.buf) <- Some x;
    t.len <- t.len + 1

  let get t i =
    if i < 0 || i >= t.len then invalid_arg "Net: index out of bounds";
    match t.buf.((t.head + i) mod Array.length t.buf) with
    | Some x -> x
    | None -> assert false

  let remove t i =
    let x = get t i in
    let cap = Array.length t.buf in
    if i < t.len - 1 - i then begin
      (* shift the prefix towards the tail, advance head *)
      for k = i downto 1 do
        t.buf.((t.head + k) mod cap) <- t.buf.((t.head + k - 1) mod cap)
      done;
      t.buf.(t.head) <- None;
      t.head <- (t.head + 1) mod cap
    end
    else begin
      for k = i to t.len - 2 do
        t.buf.((t.head + k) mod cap) <- t.buf.((t.head + k + 1) mod cap)
      done;
      t.buf.((t.head + t.len - 1) mod cap) <- None
    end;
    t.len <- t.len - 1;
    x

  let find t p =
    let rec go i =
      if i >= t.len then None else if p (get t i) then Some i else go (i + 1)
    in
    go 0

  let iter t f =
    for i = 0 to t.len - 1 do
      f (get t i)
    done

  let to_list t = List.init t.len (get t)

  let clear t =
    Array.fill t.buf 0 (Array.length t.buf) None;
    t.head <- 0;
    t.len <- 0

  (* keep elements satisfying [p], preserving order; returns removed count *)
  let keep_if t p =
    let kept = List.filter p (to_list t) in
    let removed = t.len - List.length kept in
    clear t;
    List.iter (push_back t) kept;
    removed
end

type 'a t = {
  sched : Simkit.Sched.t;
  n : int;
  flight : 'a item Dq.t; (* oldest first *)
  (* a mailbox entry carries the deliver event's seq (-1 untraced), so a
     receive can restore the causal context to "caused by this message",
     plus the sender pid and the sender's incarnation at send time *)
  mailboxes : (int, ('a * int * int * int) Queue.t) Hashtbl.t;
  mutable dead : int list; (* destinations whose mail is dead-lettered *)
  mutable faults : Simkit.Faults.t option;
  (* per-destination batching (see set_batching): a delivery attempt for
     destination d additionally coalesces up to [batch_max - 1] more
     in-flight messages to d found in the oldest [batch_window] flight
     positions.  Disabled (window 0 / max 1) by default. *)
  mutable batch_window : int;
  mutable batch_max : int;
  trc : Obs.Tracer.t;
  (* metric handles, resolved once at creation (hot-path discipline) *)
  sends_c : Obs.Metrics.Counter.t;
  attempts_c : Obs.Metrics.Counter.t;
  coalesced_c : Obs.Metrics.Counter.t;
  delivered_c : Obs.Metrics.Counter.t;
  dead_letters_c : Obs.Metrics.Counter.t;
  dropped_c : Obs.Metrics.Counter.t;
  f_dropped_c : Obs.Metrics.Counter.t;
  f_duplicated_c : Obs.Metrics.Counter.t;
  f_delayed_c : Obs.Metrics.Counter.t;
  in_flight_g : Obs.Metrics.Gauge.t;
  partition_g : Obs.Metrics.Gauge.t;
}

let create ~sched ~n =
  if n < 1 then invalid_arg "Net.create: n must be >= 1";
  let reg = Simkit.Sched.metrics sched in
  {
    sched;
    n;
    flight = Dq.create ();
    mailboxes = Hashtbl.create 16;
    dead = [];
    faults = None;
    batch_window = 0;
    batch_max = 1;
    trc = Simkit.Sched.tracer sched;
    sends_c = Obs.Metrics.counter_h reg "net.sends";
    attempts_c = Obs.Metrics.counter_h reg "net.delivery_attempts";
    coalesced_c = Obs.Metrics.counter_h reg "net.batch.coalesced";
    delivered_c = Obs.Metrics.counter_h reg "net.delivered";
    dead_letters_c = Obs.Metrics.counter_h reg "net.dead_letters";
    dropped_c = Obs.Metrics.counter_h reg "net.dropped";
    f_dropped_c = Obs.Metrics.counter_h reg "net.faults.dropped";
    f_duplicated_c = Obs.Metrics.counter_h reg "net.faults.duplicated";
    f_delayed_c = Obs.Metrics.counter_h reg "net.faults.delayed";
    in_flight_g = Obs.Metrics.gauge_h reg "net.in_flight";
    partition_g = Obs.Metrics.gauge_h reg "net.faults.partition_active";
  }

(* on every receive and every delivery: [find] builds no option box *)
let mailbox t pid =
  match Hashtbl.find t.mailboxes pid with
  | q -> q
  | exception Not_found ->
      let q = Queue.create () in
      Hashtbl.add t.mailboxes pid q;
      q

let metrics t = Simkit.Sched.metrics t.sched

let set_faults t f =
  if Simkit.Faults.affects_delivery (Simkit.Faults.plan f) then
    t.faults <- Some f

let faults t = t.faults

let set_batching t ~window ~max =
  if window < 0 then invalid_arg "Net.set_batching: window must be >= 0";
  if max < 1 then invalid_arg "Net.set_batching: max must be >= 1";
  t.batch_window <- window;
  t.batch_max <- max

let batching_active t = t.batch_window > 0 && t.batch_max > 1

let mark_dead t ~pid =
  if not (List.mem pid t.dead) then begin
    t.dead <- pid :: t.dead;
    (* mail already delivered to the dead process will never be read *)
    let q = mailbox t pid in
    if Queue.length q > 0 then begin
      Obs.Metrics.incr_h ~by:(Queue.length q) t.dead_letters_c;
      Queue.clear q
    end
  end

let is_dead t ~pid = List.mem pid t.dead

let revive t ~pid =
  if List.mem pid t.dead then begin
    t.dead <- List.filter (fun p -> p <> pid) t.dead;
    (* a recovering node boots with an empty mailbox: everything addressed
       to the old incarnation was dead-lettered while it was down *)
    Queue.clear (mailbox t pid)
  end

let note_in_flight t =
  Obs.Metrics.set_gauge_int_h t.in_flight_g (Dq.length t.flight)

let send t ~src ~dst payload =
  Obs.Metrics.incr_h t.sends_c;
  let ev =
    if Obs.Tracer.armed t.trc then
      Obs.Tracer.emit t.trc ~track:src
        ~args:[ ("dst", Obs.Json.Int dst) ]
        ~sim:(Simkit.Sched.steps t.sched) ~cat:"net" "send"
    else -1
  in
  Dq.push_back t.flight
    {
      m = { src; dst; payload };
      deferrals = 0;
      ev;
      inc = Simkit.Sched.incarnation t.sched ~pid:src;
    };
  note_in_flight t

let broadcast t ~src payload =
  for dst = 0 to t.n - 1 do
    send t ~src ~dst payload
  done

(* Pop the oldest entry of the non-empty mailbox [q]: what its process
   does next is caused by this message.  The entry was allocated when the
   message was delivered, so a receive builds no tuple of its own. *)
let pop_entry t q =
  let ((_, dseq, _, _) as entry) = Queue.pop q in
  if dseq >= 0 then Obs.Tracer.set_ctx t.trc dseq;
  entry

let try_recv t ~pid =
  let q = mailbox t pid in
  if Queue.is_empty q then None
  else
    let payload, _, _, _ = pop_entry t q in
    Some payload

let rec recv t ~pid =
  match try_recv t ~pid with
  | Some m -> m
  | None ->
      Simkit.Fiber.yield ();
      recv t ~pid

let in_flight t = Dq.length t.flight
let mailbox_size t ~pid = Queue.length (mailbox t pid)

(* Every fate of a delivery attempt is recorded against the send event
   [it.ev] — the happens-before edge the exporters draw.  [fate] and
   [enqueue] are top-level so that a delivery builds no closure. *)
let fate t it name =
  if Obs.Tracer.armed t.trc then
    Obs.Tracer.emit t.trc ~track:it.m.dst ~parent:it.ev
      ~args:[ ("src", Obs.Json.Int it.m.src) ]
      ~sim:(Simkit.Sched.steps t.sched) ~cat:"net" name
  else -1

let enqueue t it =
  Obs.Metrics.incr_h t.delivered_c;
  Queue.push
    (it.m.payload, fate t it "deliver", it.m.src, it.inc)
    (mailbox t it.m.dst)

(* The single point where an in-flight message reaches a mailbox: dead
   destinations and the fault policy are applied here, so every delivery
   path (deliver_nth/_one/_now/_from, batched or not) behaves
   identically.  The item is already off the flight list; a deferral,
   duplication or partition hold pushes it (back) onto the tail. *)
let deliver_item t it =
  let m = it.m in
  if is_dead t ~pid:m.dst then begin
    Obs.Metrics.incr_h t.dead_letters_c;
    ignore (fate t it "dead_letter")
  end
  else begin
    match t.faults with
    | None -> enqueue t it
    | Some f ->
        let step = Simkit.Sched.steps t.sched in
        Obs.Metrics.set_gauge_h t.partition_g
          (if Simkit.Faults.partition_active f ~step then 1. else 0.);
        if Simkit.Faults.partitioned f ~step ~src:m.src ~dst:m.dst then begin
          (* held until the partition heals; does not consume a draw or
             the message's deferral budget *)
          Obs.Metrics.incr_h t.f_delayed_c;
          Dq.push_back t.flight it
        end
        else begin
          match Simkit.Faults.draw f ~deferrals:it.deferrals with
          | Simkit.Faults.Drop ->
              Obs.Metrics.incr_h t.f_dropped_c;
              ignore (fate t it "drop")
          | Simkit.Faults.Defer ->
              it.deferrals <- it.deferrals + 1;
              Obs.Metrics.incr_h t.f_delayed_c;
              Dq.push_back t.flight it
          | Simkit.Faults.Duplicate ->
              Obs.Metrics.incr_h t.f_duplicated_c;
              enqueue t it;
              Dq.push_back t.flight
                { m; deferrals = it.deferrals; ev = it.ev; inc = it.inc }
          | Simkit.Faults.Deliver -> enqueue t it
        end
  end

let rec deliver_coalesced t = function
  | [] -> ()
  | extra :: rest ->
      Obs.Metrics.incr_h t.coalesced_c;
      deliver_item t extra;
      deliver_coalesced t rest

(* One delivery attempt: deliver the i-th oldest in-flight message and —
   when batching is on — coalesce same-destination messages found among
   the oldest [batch_window] flight positions into the same attempt, up
   to [batch_max] messages total, processed oldest-first.  Every
   coalesced message still runs the full per-message fate logic (dead
   destination, partition hold, its own fault draw), so batching changes
   how many messages one attempt moves, never the per-message fault
   discipline.  The whole batch is unhooked from the flight list before
   any fate runs: a deferral or duplication re-push can never be
   re-scanned within the attempt that produced it. *)
let deliver_nth t i =
  if i < 0 || i >= Dq.length t.flight then invalid_arg "Net.deliver_nth";
  Obs.Metrics.incr_h t.attempts_c;
  let it = Dq.remove t.flight i in
  let batch =
    if not (batching_active t) then []
    else begin
      let dst = it.m.dst in
      let limit = Stdlib.min (Dq.length t.flight) t.batch_window in
      let idxs = ref [] (* descending *) and found = ref 0 in
      let j = ref 0 in
      while !found < t.batch_max - 1 && !j < limit do
        if (Dq.get t.flight !j).m.dst = dst then begin
          idxs := !j :: !idxs;
          incr found
        end;
        incr j
      done;
      (* [idxs] is descending: rev_map removes youngest-first (keeping
         the remaining indices valid) and yields the items oldest-first *)
      List.rev_map (fun k -> Dq.remove t.flight k) !idxs
    end
  in
  deliver_item t it;
  deliver_coalesced t batch;
  note_in_flight t

let deliver_one t ~rng =
  match Dq.length t.flight with
  | 0 -> false
  | n ->
      deliver_nth t (Simkit.Rng.int rng n);
      true

let deliver_now t ~dst =
  match Dq.find t.flight (fun it -> it.m.dst = dst) with
  | None -> false
  | Some i ->
      deliver_nth t i;
      true

let deliver_from t ~src ~dst =
  match Dq.find t.flight (fun it -> it.m.dst = dst && it.m.src = src) with
  | None -> false
  | Some i ->
      deliver_nth t i;
      true

let deliver_all t =
  (* end-of-experiment flush: bypasses the fault policy (a drain must
     terminate whatever the plan), but still respects dead destinations *)
  Dq.iter t.flight (fun it ->
      if is_dead t ~pid:it.m.dst then begin
        Obs.Metrics.incr_h t.dead_letters_c;
        ignore (fate t it "dead_letter")
      end
      else enqueue t it);
  Dq.clear t.flight;
  note_in_flight t

let drop_to t ~dst =
  if Obs.Tracer.armed t.trc then
    Dq.iter t.flight (fun it ->
        if it.m.dst = dst then ignore (fate t it "drop"));
  let removed = Dq.keep_if t.flight (fun it -> it.m.dst <> dst) in
  Obs.Metrics.incr_h ~by:removed t.dropped_c;
  note_in_flight t

let auto_deliver_policy t ~rng inner s =
  if in_flight t > 0 && Simkit.Rng.bool rng then ignore (deliver_one t ~rng);
  inner s

(* ----- quorum collection (the hardened client loop) ------------------------- *)

let collect_quorum t ~pid ~need ~seen ~classify ~stale ~retry_after ~resend =
  let count = ref 0 in
  Array.iter (fun b -> if b then incr count) seen;
  let idle = ref 0 in
  let q = mailbox t pid in
  while !count < need do
    if not (Queue.is_empty q) then begin
      (* each entry carries the sender and its send-time incarnation *)
      let payload, _, src, inc = pop_entry t q in
      idle := 0;
      (* the incarnation rule: a reply stamped with an older incarnation
         of its sender was produced before that sender crashed — its
         state may predate what the recovered incarnation re-promised,
         so it can never count toward a post-recovery quorum *)
      if inc <> Simkit.Sched.incarnation t.sched ~pid:src then stale ()
      else
        match classify payload with
        | Some node when node >= 0 && node < Array.length seen ->
            if not seen.(node) then begin
              seen.(node) <- true;
              incr count
            end
            (* duplicate reply from a counted node: idempotent, ignore *)
        | Some _ | None -> stale ()
    end
    else begin
      Simkit.Fiber.yield ();
      incr idle;
      if retry_after > 0 && !idle >= retry_after then begin
        idle := 0;
        let missing = ref [] in
        for node = Array.length seen - 1 downto 0 do
          if not seen.(node) then missing := node :: !missing
        done;
        resend ~missing:!missing
      end
    end
  done

(* ----- diagnostics / watchdog ------------------------------------------------ *)

let describe t =
  let b = Buffer.create 128 in
  Printf.bprintf b "net: %d in flight" (Dq.length t.flight);
  if Dq.length t.flight > 0 then begin
    Buffer.add_string b " [";
    let first = ref true in
    Dq.iter t.flight (fun it ->
        if not !first then Buffer.add_string b ", ";
        first := false;
        Printf.bprintf b "%d->%d%s" it.m.src it.m.dst
          (if it.deferrals > 0 then Printf.sprintf "(x%d)" it.deferrals
           else ""));
    Buffer.add_string b "]"
  end;
  let boxes =
    Hashtbl.fold
      (fun pid q acc -> if Queue.length q > 0 then (pid, Queue.length q) :: acc else acc)
      t.mailboxes []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  Buffer.add_string b "\nmailboxes:";
  if boxes = [] then Buffer.add_string b " (all empty)"
  else
    List.iter (fun (pid, n) -> Printf.bprintf b " p%d:%d" pid n) boxes;
  if t.dead <> [] then begin
    Buffer.add_string b "\ndead:";
    List.iter (Printf.bprintf b " p%d") (List.sort Int.compare t.dead)
  end;
  Buffer.contents b

let progress_counters =
  [
    "net.delivered";
    "net.sends";
    "net.dead_letters";
    "net.faults.dropped";
    "net.faults.delayed";
    "net.faults.duplicated";
    "trace.responds";
    (* crash–recovery work is progress too: a recovery storm (restarts
       plus state-transfer rounds) must not read as a livelock *)
    "sched.restarts";
    "reg.abd.state_transfer";
    "reg.mwabd.state_transfer";
  ]

let watchdog ?(window = 5_000) t =
  let reg = metrics t in
  {
    Simkit.Sched.window;
    progress =
      (fun () ->
        List.fold_left
          (fun acc name -> acc + Obs.Metrics.counter reg name)
          0 progress_counters);
    describe = (fun () -> describe t);
  }
