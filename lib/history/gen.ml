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
   A step draws, in this order:
   - its choice: the atomic generator an index among the open ones of
     invoke, linearize and respond, even when one alone is open; the
     arbitrary one a coin between invoke and respond when both are open;
   - the process, an index among the idle ones in ascending order, or the
     op, an index among the pending ones in fold order;
   - an invoked op's kind, then, for repeated values, a written value; or
     a responding arbitrary read's result, an index among the written
     values, newest first and the initial one last.
   The fold order is the one in which [Hashtbl.fold] lists a
   [Hashtbl.create 8] keyed by process, consing each binding onto its
   accumulator: bucket [Hashtbl.hash proc land (buckets - 1)] descending,
   then oldest binding first, with 16 buckets that double once the table
   holds more than twice as many bindings.  Any other draw or order
   changes the histories of every seed: the cost ledger's, the
   benchmark's and the fingerprints in test/test_history.ml. *)

(* The pending ops, at most one per process, in fold order.  A removal
   never shrinks the buckets, and doubling them splits each bucket in
   order, so the new fold order is the old one stably sorted by new
   bucket. *)
module Pending = struct
  type 'a t = {
    mutable buckets : int;
    mutable size : int;
    mutable procs : int array; (* in fold order *)
    mutable ops : 'a array; (* [ops.(i)] is pending at [procs.(i)] *)
    mutable busy : int array; (* the same processes, ascending *)
  }

  let create () = { buckets = 16; size = 0; procs = [||]; ops = [||]; busy = [||] }
  let bucket t p = Hashtbl.hash p land (t.buckets - 1)

  (* Moves the [i]-th op left past the ops in lower buckets. *)
  let sift t i =
    let p = t.procs.(i) and op = t.ops.(i) and j = ref i in
    let b = bucket t p in
    while !j > 0 && bucket t t.procs.(!j - 1) < b do
      t.procs.(!j) <- t.procs.(!j - 1);
      t.ops.(!j) <- t.ops.(!j - 1);
      decr j
    done;
    t.procs.(!j) <- p;
    t.ops.(!j) <- op

  let add t p op =
    if t.size = Array.length t.procs then begin
      let grow a fill =
        let a' = Array.make (max 8 (2 * t.size)) fill in
        Array.blit a 0 a' 0 t.size;
        a'
      in
      t.procs <- grow t.procs 0;
      t.ops <- grow t.ops op;
      t.busy <- grow t.busy 0
    end;
    t.procs.(t.size) <- p;
    t.ops.(t.size) <- op;
    sift t t.size;
    let j = ref t.size in
    while !j > 0 && t.busy.(!j - 1) > p do
      t.busy.(!j) <- t.busy.(!j - 1);
      decr j
    done;
    t.busy.(!j) <- p;
    t.size <- t.size + 1;
    if t.size > 2 * t.buckets then begin
      t.buckets <- 2 * t.buckets;
      for i = 1 to t.size - 1 do
        sift t i
      done
    end

  let remove t p =
    let i = ref 0 and j = ref 0 in
    while t.procs.(!i) <> p do incr i done;
    while t.busy.(!j) <> p do incr j done;
    t.size <- t.size - 1;
    Array.blit t.procs (!i + 1) t.procs !i (t.size - !i);
    Array.blit t.ops (!i + 1) t.ops !i (t.size - !i);
    Array.blit t.busy (!j + 1) t.busy !j (t.size - !j)

  (* The [k]-th pending op, from 0, among those from the [i]-th on that
     satisfy [f]. *)
  let rec nth t f k i =
    if not (f t.ops.(i)) then nth t f k (i + 1)
    else if k = 0 then t.ops.(i)
    else nth t f (k - 1) (i + 1)

  (* The [k]-th process, from 0, with no pending op. *)
  let nth_idle t k =
    let p = ref (k + 1) and j = ref 0 in
    while !j < t.size && t.busy.(!j) <= !p do
      incr p;
      incr j
    done;
    !p
end

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
  let pending : sim_op Pending.t = Pending.create () in
  let n_linearized = ref 0 in
  let invoked = ref 0 in
  let steps_left = ref (n_ops * 6) in
  (* While the loop runs, some choice is open: an idle process when
     nothing is pending, a pending op otherwise. *)
  while (!invoked < n_ops || pending.size > 0) && !steps_left > 0 do
    decr steps_left;
    let n_idle = n_procs - pending.size in
    let n_unlinearized = pending.size - !n_linearized in
    let invoke = !invoked < n_ops && n_idle > 0
    and linearize = n_unlinearized > 0
    and respond = !n_linearized > 0 in
    (* an index into [Invoke; Linearize; Respond], the closed ones left out *)
    let c =
      Random.State.int st
        (Bool.to_int invoke + Bool.to_int linearize + Bool.to_int respond)
    in
    if invoke && c = 0 then begin
      let p = Pending.nth_idle pending (Random.State.int st n_idle) in
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
      Pending.add pending p
        {
          o = Op.make ~id ~proc:p ~obj:spec.obj ~kind ~invoked:t ();
          linearized = false;
          lin_result = None;
        }
    end
    else if linearize && c = Bool.to_int invoke then begin
      let so =
        Pending.nth pending
          (fun so -> not so.linearized)
          (Random.State.int st n_unlinearized)
          0
      in
      so.linearized <- true;
      incr n_linearized;
      (match so.o.kind with
      | Op.Write v -> value := v
      | Op.Read -> so.lin_result <- Some !value);
      witness := so :: !witness
    end
    else begin
      let so =
        Pending.nth pending
          (fun so -> so.linearized)
          (Random.State.int st !n_linearized)
          0
      in
      let t = next_time () in
      let result =
        match so.o.kind with Op.Read -> so.lin_result | Op.Write _ -> None
      in
      emit { Event.time = t; event = Event.Respond { op_id = so.o.id; result } };
      so.o <- { so.o with responded = Some t; result };
      decr n_linearized;
      Pending.remove pending so.o.proc
    end
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
  let pending : (Op.kind * int) Pending.t = Pending.create () in
  let invoked = ref 0 in
  let steps = (n_ops * 4) + 4 in
  for _ = 1 to steps do
    let n_busy = pending.size in
    let can_invoke = !invoked < n_ops && n_busy < n_procs in
    let can_respond = n_busy > 0 in
    let do_invoke =
      if can_invoke && can_respond then Random.State.bool st else can_invoke
    in
    if do_invoke then begin
      let p =
        Pending.nth_idle pending (Random.State.int st (n_procs - n_busy))
      in
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
      Pending.add pending p (kind, id)
    end
    else if can_respond then begin
      let i = Random.State.int st n_busy in
      let p = pending.procs.(i) and kind, id = pending.ops.(i) in
      let result =
        match kind with
        | Op.Write _ -> None
        | Op.Read ->
            let ws = !written in
            Some (List.nth ws (Random.State.int st (List.length ws)))
      in
      events :=
        { Event.time = next_time (); event = Event.Respond { op_id = id; result } }
        :: !events;
      Pending.remove pending p
    end
  done;
  Hist.of_events_exn (List.rev !events)
