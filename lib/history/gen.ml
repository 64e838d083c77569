type spec = {
  n_procs : int;
  n_ops : int;
  obj : string;
  init : Value.t;
  distinct_writes : bool;
}

let default_spec =
  { n_procs = 3; n_ops = 8; obj = "R"; init = Value.Int 0; distinct_writes = true }

(* A tiny explicit simulation: operations are invoked, linearized (taking
   effect on a register value), and responded, in a random legal order.
   The recorded event sequence is linearizable by construction and the
   linearization order is returned as a witness. *)

type sim_op = {
  mutable o : Op.t;
  mutable linearized : bool;
  mutable lin_result : Value.t option; (* captured at linearization *)
}

(* Every draw is [Random.State.int st n] or [Random.State.bool st], bit for
   bit the draws of [QCheck.Gen.int_bound (n - 1)] and [QCheck.Gen.bool].
   Any other draw changes the histories of every seed: the cost ledger's,
   the benchmark's and the fingerprints in test/test_history.ml. *)
let pick st xs = List.nth xs (Random.State.int st (List.length xs))

let atomic_history_with_witness spec st =
  let n_procs = max 1 spec.n_procs and n_ops = max 1 spec.n_ops in
  let time = ref 0 in
  let next_time () =
    incr time;
    !time
  in
  let next_id = ref 0 in
  let next_val = ref 0 in
  let fresh_value () =
    incr next_val;
    if spec.distinct_writes then Value.Int (100 + !next_val)
    else Value.Int (Random.State.int st 3)
  in
  let events = ref [] in
  let emit e = events := e :: !events in
  let value = ref spec.init in
  let witness = ref [] in
  let pending : (int, sim_op) Hashtbl.t = Hashtbl.create 8 in
  (* proc -> its pending op *)
  let invoked = ref 0 in
  let steps_left = ref (n_ops * 6) in
  while (!invoked < n_ops || Hashtbl.length pending > 0) && !steps_left > 0 do
    decr steps_left;
    let idle_procs =
      List.filter
        (fun p -> not (Hashtbl.mem pending p))
        (List.init n_procs (fun i -> i + 1))
    in
    let can_invoke = !invoked < n_ops && idle_procs <> [] in
    let lin_candidates =
      Hashtbl.fold
        (fun _ so acc -> if not so.linearized then so :: acc else acc)
        pending []
    in
    let resp_candidates =
      Hashtbl.fold
        (fun _ so acc -> if so.linearized then so :: acc else acc)
        pending []
    in
    let choices =
      (if can_invoke then [ `Invoke ] else [])
      @ (if lin_candidates <> [] then [ `Linearize ] else [])
      @ if resp_candidates <> [] then [ `Respond ] else []
    in
    match choices with
    | [] -> steps_left := 0
    | _ -> (
        match pick st choices with
        | `Invoke ->
            let p = pick st idle_procs in
            let kind =
              if Random.State.bool st then Op.Read else Op.Write (fresh_value ())
            in
            incr next_id;
            let id = !next_id in
            let t = next_time () in
            emit
              {
                Event.time = t;
                event = Event.Invoke { op_id = id; proc = p; obj = spec.obj; kind };
              };
            incr invoked;
            Hashtbl.add pending p
              {
                o = Op.make ~id ~proc:p ~obj:spec.obj ~kind ~invoked:t ();
                linearized = false;
                lin_result = None;
              }
        | `Linearize ->
            let so = pick st lin_candidates in
            so.linearized <- true;
            (match so.o.kind with
            | Op.Write v -> value := v
            | Op.Read -> so.lin_result <- Some !value);
            witness := so :: !witness
        | `Respond ->
            let so = pick st resp_candidates in
            let t = next_time () in
            let result =
              match so.o.kind with Op.Read -> so.lin_result | Op.Write _ -> None
            in
            emit { Event.time = t; event = Event.Respond { op_id = so.o.id; result } };
            so.o <- { so.o with responded = Some t; result };
            Hashtbl.remove pending so.o.proc)
  done;
  let h = Hist.of_events_exn (List.rev !events) in
  (* Witness: all linearized writes + responded reads, in linearization
     order; linearized-but-pending reads are dropped (Definition 2 allows
     omitting non-completed operations). *)
  let wit =
    List.rev !witness
    |> List.filter_map (fun so ->
           match so.o.kind with
           | Op.Write _ -> Some so.o
           | Op.Read -> if Op.is_complete so.o then Some so.o else None)
  in
  (h, wit)

let atomic_history spec st = fst (atomic_history_with_witness spec st)

let arbitrary_history spec st =
  let n_procs = max 1 spec.n_procs and n_ops = max 1 spec.n_ops in
  let time = ref 0 in
  let next_time () =
    incr time;
    !time
  in
  let next_id = ref 0 in
  let next_val = ref 0 in
  let written = ref [ spec.init ] in
  let events = ref [] in
  let pending : (int, Op.kind * int) Hashtbl.t = Hashtbl.create 8 in
  let invoked = ref 0 in
  let steps = (n_ops * 4) + 4 in
  for _ = 1 to steps do
    let idle_procs =
      List.filter
        (fun p -> not (Hashtbl.mem pending p))
        (List.init n_procs (fun i -> i + 1))
    in
    let can_invoke = !invoked < n_ops && idle_procs <> [] in
    let can_respond = Hashtbl.length pending > 0 in
    let do_invoke =
      if can_invoke && can_respond then Random.State.bool st else can_invoke
    in
    if do_invoke then begin
      let p = pick st idle_procs in
      let kind =
        if Random.State.bool st then Op.Read
        else begin
          incr next_val;
          let v =
            if spec.distinct_writes then Value.Int (100 + !next_val)
            else Value.Int (Random.State.int st 3)
          in
          written := v :: !written;
          Op.Write v
        end
      in
      incr next_id;
      let id = !next_id in
      events :=
        {
          Event.time = next_time ();
          event = Event.Invoke { op_id = id; proc = p; obj = spec.obj; kind };
        }
        :: !events;
      incr invoked;
      Hashtbl.add pending p (kind, id)
    end
    else if can_respond then begin
      let procs = Hashtbl.fold (fun p _ acc -> p :: acc) pending [] in
      let p = pick st procs in
      let kind, id = Hashtbl.find pending p in
      let result =
        match kind with
        | Op.Write _ -> None
        | Op.Read ->
            let ws = !written in
            Some (pick st ws)
      in
      events :=
        { Event.time = next_time (); event = Event.Respond { op_id = id; result } }
        :: !events;
      Hashtbl.remove pending p
    end
  done;
  Hist.of_events_exn (List.rev !events)
