type entry =
  | Ev of History.Event.timed
  | Lin of { time : int; op_id : int }
  | Coin of { time : int; proc : int; value : int }
  | ValWrite of { time : int; op_id : int; proc : int; idx : int }
  | TsSnapshot of { time : int; op_id : int; proc : int; ts : Clocks.Vector.t }
  | ReadTs of { time : int; op_id : int; proc : int; ts : Clocks.Vector.t }
  | Note of { time : int; tag : string; text : string }

type t = {
  mutable clock : int;
  mutable rev_entries : entry list;
  sink : (entry -> unit) option;
  mutable next_op : int;
  metrics : Obs.Metrics.t;
  (* metric handles, resolved once at creation (hot-path discipline) *)
  invokes_c : Obs.Metrics.Counter.t;
  responds_c : Obs.Metrics.Counter.t;
  lins_c : Obs.Metrics.Counter.t;
  latency_h : Obs.Metrics.Hist.t;
  invoked_at : (int, int) Hashtbl.t; (* op_id -> invocation time *)
}

let create ?(metrics = Obs.Metrics.create ()) ?sink () =
  {
    clock = 0;
    rev_entries = [];
    sink;
    next_op = 0;
    metrics;
    invokes_c = Obs.Metrics.counter_h metrics "trace.invokes";
    responds_c = Obs.Metrics.counter_h metrics "trace.responds";
    lins_c = Obs.Metrics.counter_h metrics "trace.lins";
    latency_h = Obs.Metrics.hist_h metrics "op.latency.sim";
    invoked_at = Hashtbl.create 32;
  }

let metrics t = t.metrics
let now t = t.clock

let next_time t =
  t.clock <- t.clock + 1;
  t.clock

(* With a sink, an entry goes straight to its consumer and the trace keeps
   none, so a long run's entries die young: a kept entry that outlives a
   minor collection is promoted to the major heap. *)
let push t e =
  match t.sink with
  | None -> t.rev_entries <- e :: t.rev_entries
  | Some f -> f e

let invoke t ~proc ~obj ~kind =
  t.next_op <- t.next_op + 1;
  let op_id = t.next_op in
  let time = next_time t in
  Hashtbl.replace t.invoked_at op_id time;
  Obs.Metrics.incr_h t.invokes_c;
  push t (Ev { History.Event.time; event = History.Event.Invoke { op_id; proc; obj; kind } });
  op_id

let respond t ~op_id ~result =
  let time = next_time t in
  Obs.Metrics.incr_h t.responds_c;
  (match Hashtbl.find_opt t.invoked_at op_id with
  | Some t0 ->
      Obs.Metrics.observe_h t.latency_h (float_of_int (time - t0));
      (* the op is closed: retiring its entry keeps the table bounded by
         the number of *pending* ops, not the ops ever invoked *)
      Hashtbl.remove t.invoked_at op_id
  | None -> ());
  push t (Ev { History.Event.time; event = History.Event.Respond { op_id; result } })

let linearize t ~op_id =
  Obs.Metrics.incr_h t.lins_c;
  push t (Lin { time = next_time t; op_id })

let coin t ~proc ~value = push t (Coin { time = next_time t; proc; value })

let val_write t ~op_id ~proc ~idx =
  push t (ValWrite { time = next_time t; op_id; proc; idx })

let ts_snapshot t ~op_id ~proc ~ts =
  push t (TsSnapshot { time = next_time t; op_id; proc; ts })

let read_ts t ~op_id ~proc ~ts =
  push t (ReadTs { time = next_time t; op_id; proc; ts })

let note t ~tag ~text = push t (Note { time = next_time t; tag; text })
let entries t = List.rev t.rev_entries

let history t =
  entries t
  |> List.filter_map (function Ev e -> Some e | _ -> None)
  |> History.Hist.of_events_exn

let lin_time t ~op_id =
  entries t
  |> List.find_map (function
       | Lin { time; op_id = id } when id = op_id -> Some time
       | _ -> None)

let coins t =
  entries t
  |> List.filter_map (function
       | Coin { time; proc; value } -> Some (time, proc, value)
       | _ -> None)

let entry_time = function
  | Ev { History.Event.time; _ }
  | Lin { time; _ }
  | Coin { time; _ }
  | ValWrite { time; _ }
  | TsSnapshot { time; _ }
  | ReadTs { time; _ }
  | Note { time; _ } ->
      time

let pp_entry fmt = function
  | Ev e -> History.Event.pp_timed fmt e
  | Lin { time; op_id } -> Format.fprintf fmt "%d:lin(#%d)" time op_id
  | Coin { time; proc; value } ->
      Format.fprintf fmt "%d:coin(p%d)=%d" time proc value
  | ValWrite { time; op_id; proc; idx } ->
      Format.fprintf fmt "%d:valwrite(#%d p%d Val[%d])" time op_id proc idx
  | TsSnapshot { time; op_id; proc; ts } ->
      Format.fprintf fmt "%d:ts(#%d p%d %a)" time op_id proc Clocks.Vector.pp ts
  | ReadTs { time; op_id; proc; ts } ->
      Format.fprintf fmt "%d:readts(#%d p%d %a)" time op_id proc Clocks.Vector.pp ts
  | Note { time; tag; text } -> Format.fprintf fmt "%d:%s:%s" time tag text

let pp fmt t =
  Format.fprintf fmt "@[<v>%a@]" (Format.pp_print_list pp_entry) (entries t)

(* ----- JSONL serialization (see DESIGN.md "Observability") ------------- *)

module J = Obs.Json

let vector_json v =
  J.List
    (List.map
       (function
         | Clocks.Vector.Fin k -> J.Int k
         | Clocks.Vector.Inf -> J.Str "inf")
       (Clocks.Vector.to_list v))

let value_json : History.Value.t -> J.t = function
  | History.Value.Bot -> J.Obj [ ("type", J.Str "bot") ]
  | History.Value.Int n -> J.Obj [ ("type", J.Str "int"); ("v", J.Int n) ]
  | History.Value.Pair (a, b) ->
      J.Obj [ ("type", J.Str "pair"); ("a", J.Int a); ("b", J.Int b) ]
  | History.Value.VecStamped (v, ts) ->
      J.Obj [ ("type", J.Str "vec"); ("v", J.Int v); ("ts", vector_json ts) ]
  | History.Value.LamStamped (v, ts) ->
      J.Obj
        [
          ("type", J.Str "lam");
          ("v", J.Int v);
          ("sq", J.Int ts.Clocks.Lamport.sq);
          ("pid", J.Int ts.Clocks.Lamport.pid);
        ]

let entry_json = function
  | Ev { History.Event.time; event = History.Event.Invoke { op_id; proc; obj; kind } } ->
      J.Obj
        ([
           ("t", J.Int time);
           ("kind", J.Str "invoke");
           ("op", J.Int op_id);
           ("proc", J.Int proc);
           ("obj", J.Str obj);
         ]
        @
        match kind with
        | History.Op.Read -> [ ("opkind", J.Str "read") ]
        | History.Op.Write v ->
            [ ("opkind", J.Str "write"); ("value", value_json v) ])
  | Ev { History.Event.time; event = History.Event.Respond { op_id; result } } ->
      J.Obj
        [
          ("t", J.Int time);
          ("kind", J.Str "respond");
          ("op", J.Int op_id);
          ( "result",
            match result with Some v -> value_json v | None -> J.Null );
        ]
  | Lin { time; op_id } ->
      J.Obj [ ("t", J.Int time); ("kind", J.Str "lin"); ("op", J.Int op_id) ]
  | Coin { time; proc; value } ->
      J.Obj
        [
          ("t", J.Int time);
          ("kind", J.Str "coin");
          ("proc", J.Int proc);
          ("value", J.Int value);
        ]
  | ValWrite { time; op_id; proc; idx } ->
      J.Obj
        [
          ("t", J.Int time);
          ("kind", J.Str "valwrite");
          ("op", J.Int op_id);
          ("proc", J.Int proc);
          ("idx", J.Int idx);
        ]
  | TsSnapshot { time; op_id; proc; ts } ->
      J.Obj
        [
          ("t", J.Int time);
          ("kind", J.Str "ts");
          ("op", J.Int op_id);
          ("proc", J.Int proc);
          ("ts", vector_json ts);
        ]
  | ReadTs { time; op_id; proc; ts } ->
      J.Obj
        [
          ("t", J.Int time);
          ("kind", J.Str "readts");
          ("op", J.Int op_id);
          ("proc", J.Int proc);
          ("ts", vector_json ts);
        ]
  | Note { time; tag; text } ->
      J.Obj
        [
          ("t", J.Int time);
          ("kind", J.Str "note");
          ("tag", J.Str tag);
          ("text", J.Str text);
        ]

let json_entries t = List.map entry_json (entries t)
