module V = History.Value
module Op = History.Op
module Trace = Simkit.Trace
module Sched = Simkit.Sched

type persist = [ `Every | `Never ]

module type TS = sig
  type t

  val init : node:int -> t
  val compare : t -> t -> int
  val field : t -> string * Obs.Json.t
end

module type S = sig
  type t
  type msg

  val net : t -> msg Net.t
  val majority : t -> int
  val read : t -> reader:int -> int
  val crash_node : t -> node:int -> unit
  val recover_node : t -> node:int -> unit
  val server_pid : node:int -> int
end

module Make (Ts : TS) = struct
  let server_pid ~node = 100 + node

  (* Requests name the pid to answer, and replies carry the responding
     replica's node index: quorum counting is per distinct node, which
     makes the protocol idempotent under retransmission and message
     duplication (a doubled ack can never count twice towards a
     majority).  A recovering server's state transfer is a [Query] too,
     answered to its server pid. *)
  type msg =
    | Query of { rid : int; client : int }
    | Reply of { rid : int; node : int; ts : Ts.t; v : int }
    | Update of { rid : int; client : int; ts : Ts.t; v : int }
    | Ack of { rid : int; node : int }

  type replica = { mutable ts : Ts.t; mutable v : int }

  type t = {
    sched : Sched.t;
    name_ : string;
    n_ : int;
    init_ : int;
    retry_ : int; (* client retransmission timeout, in own-fiber yields *)
    quorum_ : int; (* replies per round; majority unless overridden *)
    persist_ : persist;
    unsafe_recovery_ : bool;
    net : msg Net.t;
    replicas : replica array;
    stable : (Ts.t * int) Simkit.Stable.t; (* per-node durable (ts, v) log *)
    lost_at_crash : int array; (* records lost by each node's last crash *)
    mutable rid : int; (* fresh round ids *)
    (* metric handles, resolved once at creation (hot-path discipline) *)
    quorum_need_h : Obs.Metrics.Hist.t;
    stale_c : Obs.Metrics.Counter.t;
    retransmits_c : Obs.Metrics.Counter.t;
    writes_c : Obs.Metrics.Counter.t;
    reads_c : Obs.Metrics.Counter.t;
    recoveries_c : Obs.Metrics.Counter.t;
    state_transfer_c : Obs.Metrics.Counter.t;
    amnesia_c : Obs.Metrics.Counter.t;
  }

  (* flight-recorder events for operation phases (category "reg"): an
     [invoke] roots the op's causal tree, each quorum [round] chains to it,
     [retransmit]s chain to their round, and the [respond] closes the op.
     Every call site tests [armed t] before it builds the arguments, so
     untraced runs pay one branch and allocate nothing. *)
  let trc t = Sched.tracer t.sched
  let armed t = Obs.Tracer.armed (trc t)

  let emit_op t ~pid ~parent name args =
    Obs.Tracer.emit (trc t) ~track:pid ~parent
      ~args:(("obj", Obs.Json.Str t.name_) :: args)
      ~sim:(Sched.steps t.sched) ~cat:"reg" name

  (* a replica accepted an update: apply it in memory and write it ahead to
     stable storage.  Under [`Every] the append is immediately durable (and
     traced as a [persist] sync point); under [`Never] it stays in the
     volatile tail, which a crash discards — that is the amnesia the unsafe
     recovery path exposes. *)
  let store t ~node rep ts v =
    rep.ts <- ts;
    rep.v <- v;
    Simkit.Stable.append t.stable ~node (ts, v);
    if t.persist_ = `Every && armed t then
      ignore
        (emit_op t ~pid:(server_pid ~node) ~parent:(-1) "persist"
           [ ("node", Obs.Json.Int node); Ts.field ts ])

  let server t node () =
    let me = server_pid ~node in
    let rep = t.replicas.(node) in
    while true do
      match Net.recv t.net ~pid:me with
      | Query { rid; client } ->
          Net.send t.net ~src:me ~dst:client
            (Reply { rid; node; ts = rep.ts; v = rep.v })
      | Update { rid; client; ts; v } ->
          (* idempotent: re-applying an old/duplicate request is a no-op,
             but it is always re-acknowledged (the earlier ack may have
             been dropped) *)
          if Ts.compare ts rep.ts > 0 then store t ~node rep ts v;
          Net.send t.net ~src:me ~dst:client (Ack { rid; node })
      | Reply _ ->
          (* a state-transfer reply landing after the handshake finished
             (late or duplicated): stale, ignore *)
          Obs.Metrics.incr_h t.stale_c
      | Ack _ ->
          (* client-bound message misrouted to a server: impossible by
             construction (faults drop/duplicate/delay, never re-address) *)
          assert false
    done

  let create ?(retry_after = 25) ?quorum ?(persist = `Every)
      ?(unsafe_recovery = false) ?(compact = false) ~proto ~sched ~name ~n
      ~init () =
    let bad msg =
      invalid_arg (String.capitalize_ascii proto ^ ".create: " ^ msg)
    in
    if n < 2 then bad "n must be >= 2";
    if n >= 100 then bad "n must be < 100";
    let quorum_ = match quorum with Some q -> q | None -> (n / 2) + 1 in
    if quorum_ < 1 || quorum_ > n then bad "quorum out of range";
    let m = Sched.metrics sched in
    let key k = Printf.sprintf "reg.%s.%s" proto k in
    let counter k = Obs.Metrics.counter_h m (key k) in
    let stable =
      Simkit.Stable.create ~metrics:m ~auto_compact:compact
        ~policy:(match persist with `Every -> Simkit.Stable.Every | `Never -> Simkit.Stable.Explicit)
        ~n ()
    in
    let t =
      {
        sched;
        name_ = name;
        n_ = n;
        init_ = init;
        retry_ = retry_after;
        quorum_;
        persist_ = persist;
        unsafe_recovery_ = unsafe_recovery;
        net = Net.create ~sched ~n:200;
        replicas = Array.init n (fun node -> { ts = Ts.init ~node; v = init });
        stable;
        lost_at_crash = Array.make n 0;
        rid = 0;
        quorum_need_h = Obs.Metrics.hist_h m (key "quorum.need");
        stale_c = counter "stale";
        retransmits_c = counter "retransmits";
        writes_c = counter "writes";
        reads_c = counter "reads";
        recoveries_c = counter "recoveries";
        state_transfer_c = counter "state_transfer";
        amnesia_c = counter "amnesia";
      }
    in
    for node = 0 to n - 1 do
      (* every node's initial register copy is durable (a freshly formatted
         disk), whatever the persist policy *)
      Simkit.Stable.append t.stable ~node (Ts.init ~node, init);
      Simkit.Stable.persist t.stable ~node;
      Sched.spawn sched ~pid:(server_pid ~node) (server t node)
    done;
    t

  let net t = t.net
  let name t = t.name_
  let n t = t.n_
  let majority t = (t.n_ / 2) + 1

  let fresh_rid t =
    t.rid <- t.rid + 1;
    t.rid

  (* send [payload] to every replica not yet marked in [seen], then await
     matching replies until [need] distinct replicas are marked,
     retransmitting to the missing ones on a step-count timeout.  Sends
     and [retransmit] events chain to the tracer event [parent]. *)
  let gather t ~pid ~parent ~need ~seen payload classify =
    let send node = Net.send t.net ~src:pid ~dst:(server_pid ~node) payload in
    Obs.Tracer.set_ctx (trc t) parent;
    Array.iteri (fun node marked -> if not marked then send node) seen;
    Net.collect_quorum t.net ~pid ~need ~seen ~classify
      ~stale:(fun () -> Obs.Metrics.incr_h t.stale_c)
      ~retry_after:t.retry_
      ~resend:(fun ~missing ->
        Obs.Metrics.incr_h t.retransmits_c;
        if armed t then
          ignore
            (emit_op t ~pid ~parent "retransmit"
               [ ("missing", Obs.Json.Int (List.length missing)) ]);
        Obs.Tracer.set_ctx (trc t) parent;
        List.iter send missing)

  (* one client round trip to a quorum of all replicas.  [pseq] is the
     invoke event this round belongs to (-1 untraced). *)
  let round t ~pid ~pseq payload classify =
    (* every round records the quorum size it waits for: the chaos
       quorum-intersection monitor checks min(need) >= majority *)
    Obs.Metrics.observe_h t.quorum_need_h (float_of_int t.quorum_);
    let rseq =
      if armed t then
        emit_op t ~pid ~parent:pseq "round"
          [ ("need", Obs.Json.Int t.quorum_) ]
      else -1
    in
    gather t ~pid ~parent:rseq ~need:t.quorum_ ~seen:(Array.make t.n_ false)
      payload classify;
    (* collect consumed deliveries and left the context on the last one;
       restore the op as ambient cause for whatever follows the round *)
    Obs.Tracer.set_ctx (trc t) pseq

  (* classify the replies to query [rid], keeping the largest (ts, v) in
     [best].  Updating [best] from a duplicate (or refreshed) reply of an
     already-counted node is safe: a larger timestamp only strengthens
     what the caller does with it. *)
  let keep_max rid best = function
    | Reply { rid = rid'; node; ts; v } when rid' = rid ->
        (match !best with
        | Some (b, _) when Ts.compare ts b <= 0 -> ()
        | _ -> best := Some (ts, v));
        Some node
    | _ -> None

  (* the query phase: a quorum's largest (ts, v) *)
  let query t ~pid ~pseq =
    let rid = fresh_rid t and best = ref None in
    round t ~pid ~pseq (Query { rid; client = pid }) (keep_max rid best);
    Option.get !best

  (* the update phase: a quorum has stored (ts, v) or something newer *)
  let update t ~pid ~pseq ts v =
    let rid = fresh_rid t in
    round t ~pid ~pseq
      (Update { rid; client = pid; ts; v })
      (function Ack { rid = rid'; node } when rid' = rid -> Some node | _ -> None)

  (* one client operation between its trace invoke and respond; [body]
     gets the invoke event and returns the read's value, if any *)
  let client_op t ~proc kind body =
    let tr = Sched.trace t.sched in
    let op_id = Trace.invoke tr ~proc ~obj:t.name_ ~kind in
    let pseq =
      if armed t then
        emit_op t ~pid:proc ~parent:(-1) "invoke"
          (("op", Obs.Json.Int op_id)
          ::
          (match kind with
          | Op.Read -> [ ("kind", Obs.Json.Str "read") ]
          | Op.Write (V.Int v) ->
              [ ("kind", Obs.Json.Str "write"); ("v", Obs.Json.Int v) ]
          | Op.Write _ -> assert false (* a replica register holds ints *)))
      else -1
    in
    let result = body pseq in
    if armed t then
      ignore
        (emit_op t ~pid:proc ~parent:pseq "respond"
           (("op", Obs.Json.Int op_id)
           ::
           (match result with
           | Some v -> [ ("v", Obs.Json.Int v) ]
           | None -> [])));
    Obs.Tracer.set_ctx (trc t) (-1);
    Trace.respond tr ~op_id ~result:(Option.map (fun v -> V.Int v) result);
    result

  let write t ~proc ~stamp v =
    Obs.Metrics.incr_h t.writes_c;
    ignore
      (client_op t ~proc (Op.Write (V.Int v)) (fun pseq ->
           let ts = stamp (fun () -> fst (query t ~pid:proc ~pseq)) in
           update t ~pid:proc ~pseq ts v;
           None))

  (* query, then write the largest pair back to a quorum before returning
     it — the "readers must write" phase, without which two sequential
     reads could observe new-then-old *)
  let read t ~reader =
    Obs.Metrics.incr_h t.reads_c;
    Option.get
      (client_op t ~proc:reader Op.Read (fun pseq ->
           let ts, v = query t ~pid:reader ~pseq in
           update t ~pid:reader ~pseq ts v;
           Some v))

  let crash_node t ~node =
    (* the un-persisted stable-storage suffix dies with the node; remember
       how much was lost so the recovery path can tell restart from amnesia *)
    if not (Sched.crashed t.sched ~pid:(server_pid ~node)) then
      t.lost_at_crash.(node) <- Simkit.Stable.crash t.stable ~node;
    Sched.crash t.sched ~pid:(server_pid ~node);
    (match Sched.status t.sched ~pid:node with
    | exception Invalid_argument _ -> () (* client fiber never spawned *)
    | _ -> Sched.crash t.sched ~pid:node);
    (* the network learns the destination died: in-flight mail is dropped
       now, later deliveries are dead-lettered instead of queueing forever *)
    Net.mark_dead t.net ~pid:(server_pid ~node);
    Net.drop_to t.net ~dst:(server_pid ~node)

  (* the first code a restarted server runs: reload the durable register
     copy, then — unless recovery is unsafely skipped — run the
     state-transfer handshake before rejoining the protocol. *)
  let recovering_server t node () =
    let me = server_pid ~node in
    let rep = t.replicas.(node) in
    (* volatile state died with the old incarnation: what survives is the
       durable prefix of the write-ahead log *)
    let ts, v =
      Option.value
        (Simkit.Stable.last_durable t.stable ~node)
        ~default:(Ts.init ~node, t.init_)
    in
    rep.ts <- ts;
    rep.v <- v;
    if t.unsafe_recovery_ then begin
      (* serve straight from the (possibly stale) durable copy.  If the
         crash lost acknowledged updates this replica rejoins quorums with
         rolled-back state — the seeded bug the recovery-sanity monitor
         flags. *)
      if t.lost_at_crash.(node) > 0 then Obs.Metrics.incr_h t.amnesia_c;
      if armed t then
        ignore
          (emit_op t ~pid:me ~parent:(-1) "recover_unsafe"
             [
               ("node", Obs.Json.Int node);
               ("lost", Obs.Json.Int t.lost_at_crash.(node));
             ])
    end
    else begin
      Obs.Metrics.incr_h t.state_transfer_c;
      Obs.Metrics.observe_h t.quorum_need_h (float_of_int (majority t));
      let pseq =
        if armed t then
          emit_op t ~pid:me ~parent:(-1) "state_transfer"
            [ ("node", Obs.Json.Int node) ]
        else -1
      in
      (* read back from a majority of the OTHER replicas: self-inclusion
         would let an amnesiac copy vouch for itself, while a majority of
         the others intersects every write quorum at a node that did not
         just lose state.  [seen.(node)] is pre-marked so sends skip
         self; [need] counts that mark, hence majority + 1. *)
      let seen = Array.make t.n_ false in
      seen.(node) <- true;
      let rid = fresh_rid t and best = ref (Some (rep.ts, rep.v)) in
      gather t ~pid:me ~parent:pseq ~need:(majority t + 1) ~seen
        (Query { rid; client = me })
        (keep_max rid best);
      (* adopt and immediately persist the transferred state: recovery
         always ends at a sync point, whatever the persist policy *)
      let ts, v = Option.get !best in
      if Ts.compare ts rep.ts > 0 then begin
        rep.ts <- ts;
        rep.v <- v;
        Simkit.Stable.append t.stable ~node (ts, v)
      end;
      Simkit.Stable.persist t.stable ~node;
      if armed t then
        ignore
          (emit_op t ~pid:me ~parent:pseq "persist"
             [ ("node", Obs.Json.Int node); Ts.field rep.ts ]);
      Obs.Tracer.set_ctx (trc t) (-1)
    end;
    server t node ()

  let recover_node t ~node =
    let spid = server_pid ~node in
    Net.revive t.net ~pid:spid;
    ignore (Sched.restart t.sched ~pid:spid (recovering_server t node));
    Obs.Metrics.incr_h t.recoveries_c
end
