module V = History.Value
module Op = History.Op
module Inc = Linchk.Increment

(* Per-object streaming segmentation.

   The segmentation invariant (DESIGN.md §15): a quiescent point — an
   event after which every invoked op has responded — splits the
   object's history into independently-checkable segments, because any
   linearization of the whole history decomposes at the boundary (every
   op on the left really-precedes every op on the right).  The only
   cross-boundary state is the register's value, so each segment starts
   from the previous one's feasible boundary values ({!Inc.outcome}'s
   [Pass] list) and the conjunction of segment verdicts equals the
   offline verdict on the whole history.

   After a [Fail] or [Unknown] segment the exact boundary set is
   unavailable; the entry set becomes the over-approximation "anything
   the register could hold" — the previous candidates plus every value
   the segment wrote — flagged [exact = false] in subsequent verdicts.
   If that set outgrows [values_cap] it cannot be materialized and
   later segments degrade to an explicit [Entry_overflow] unknown
   rather than guessing.

   Each segment is decided by a [decider]: [incremental] for
   [rlin serve], [Reference.offline] for its self-check.  The screens,
   boundaries and entry sets here are shared by both.  An object has one
   decider, made on its first segment and restarted on each later one,
   so that a stream of short segments allocates, and promotes, no
   checker per segment. *)

type config = {
  seg_cap : int;
  state_budget : int;
  values_cap : int;
}

let default_config =
  {
    seg_cap = Linchk.Lincheck.max_ops;
    state_budget = Inc.default_state_budget;
    values_cap = 64;
  }

type decider = {
  invoke : id:int -> kind:Op.kind -> time:int -> unit;
  respond : id:int -> result:V.t option -> time:int -> unit;
  degrade : Inc.reason -> unit;
  degraded : unit -> Inc.reason option;
  pending : unit -> int;
  outcome : unit -> Inc.outcome;
  restart : entry:V.t list -> unit;
}

type decide = metrics:Obs.Metrics.t -> config -> entry:V.t list -> decider

let incremental ~metrics cfg ~entry =
  let inc =
    Inc.create ~metrics ~cap:cfg.seg_cap ~state_budget:cfg.state_budget
      ~entry ()
  in
  {
    invoke = Inc.invoke inc;
    respond = Inc.respond inc;
    degrade = Inc.degrade inc;
    degraded = (fun () -> Inc.degraded inc);
    pending = (fun () -> Inc.pending inc);
    outcome = (fun () -> Inc.outcome inc);
    restart = (fun ~entry -> Inc.reset inc ~entry);
  }

type entry = { exact : bool; values : V.t list; overflow : bool }

let entry_exact values = { exact = true; values; overflow = false }

type op_state = Open of bool (* is_read *) | Done

type t = {
  obj : string;
  cfg : config;
  metrics : Obs.Metrics.t;
  decide : decide;
  mutable index : int;
  mutable entry : entry;
  mutable dec : decider option; (* made on the first segment *)
  mutable inc : decider option; (* [dec], while a segment is open *)
  ids : (int, op_state) Hashtbl.t; (* this segment's op ids *)
  mutable seg_writes : V.t list; (* distinct, reverse first-write order *)
  mutable seg_write_count : int;
  mutable writes_overflow : bool;
  mutable first_t : int;
  mutable last_t : int;
  mutable ops : int;
  mutable open_cost : int; (* events buffered while not degraded *)
}

let create ?(metrics = Obs.Metrics.global) ?(decide = incremental) ~config ~obj
    ~entry ~index () =
  {
    obj;
    cfg = config;
    metrics;
    decide;
    index;
    entry;
    dec = None;
    inc = None;
    ids = Hashtbl.create 64;
    seg_writes = [];
    seg_write_count = 0;
    writes_overflow = false;
    first_t = 0;
    last_t = 0;
    ops = 0;
    open_cost = 0;
  }

let obj t = t.obj
let index t = t.index
let entry t = t.entry
let is_open t = Option.is_some t.inc
let open_cost t = t.open_cost

let start_segment t =
  let entry = if t.entry.values = [] then [ V.Bot ] else t.entry.values in
  let inc =
    match t.dec with
    | Some d ->
        d.restart ~entry;
        d
    | None ->
        let d = t.decide ~metrics:t.metrics t.cfg ~entry in
        t.dec <- Some d;
        d
  in
  if t.entry.overflow then
    inc.degrade (Inc.Entry_overflow { cap = t.cfg.values_cap });
  t.inc <- t.dec;
  inc

let dedup_mem vs v = List.exists (V.equal v) vs

let note_write t v =
  if not (dedup_mem t.seg_writes v) then begin
    if t.seg_write_count >= t.cfg.values_cap then t.writes_overflow <- true
    else begin
      t.seg_writes <- v :: t.seg_writes;
      t.seg_write_count <- t.seg_write_count + 1
    end
  end

let shed t ~pending ~max_pending =
  match t.inc with
  | None -> ()
  | Some inc ->
      inc.degrade (Inc.Shed { pending; max_pending });
      t.open_cost <- 0

(* Retire the current segment: decide it, compute the next entry set,
   reset per-segment state.  [closed] is false only at EOF flush. *)
let retire t inc ~closed =
  let outcome = inc.outcome () in
  let verdict_outcome, final_vals, next_entry =
    match outcome with
    | Inc.Pass finals ->
        let next =
          if closed then entry_exact finals
          else t.entry (* flush: stream over, entry unused *)
        in
        (Verdict.Ok_, (if closed then List.length finals else 0), next)
    | Inc.Fail | Inc.Unknown _ ->
        let out =
          match outcome with
          | Inc.Fail -> Verdict.Fail
          | Inc.Unknown r -> Verdict.Unknown r
          | Inc.Pass _ -> assert false
        in
        (* anything the register could hold now: the old candidates plus
           everything this segment wrote *)
        let values =
          List.fold_left
            (fun acc v -> if dedup_mem acc v then acc else acc @ [ v ])
            t.entry.values (List.rev t.seg_writes)
        in
        let overflow =
          t.entry.overflow || t.writes_overflow
          || List.length values > t.cfg.values_cap
        in
        (* keep the materialized list bounded even once overflowed *)
        let values =
          if overflow then List.filteri (fun i _ -> i < t.cfg.values_cap) values
          else values
        in
        (out, 0, { exact = false; values; overflow })
  in
  let v =
    {
      Verdict.obj = t.obj;
      segment = t.index;
      from_t = t.first_t;
      to_t = t.last_t;
      ops = t.ops;
      closed;
      outcome = verdict_outcome;
      entry_vals = List.length t.entry.values;
      entry_any = (not t.entry.exact) || t.entry.overflow;
      final_vals;
    }
  in
  t.inc <- None;
  Hashtbl.reset t.ids;
  t.seg_writes <- [];
  t.seg_write_count <- 0;
  t.writes_overflow <- false;
  t.ops <- 0;
  t.open_cost <- 0;
  t.index <- t.index + 1;
  t.entry <- next_entry;
  v

let invoke t ~id ~kind ~time =
  if Hashtbl.mem t.ids id then
    Error (Printf.sprintf "duplicate op id #%d in segment %d" id t.index)
  else begin
    let inc = match t.inc with Some i -> i | None -> start_segment t in
    if t.ops = 0 then t.first_t <- time;
    t.last_t <- time;
    t.ops <- t.ops + 1;
    (match kind with Op.Write v -> note_write t v | Op.Read -> ());
    Hashtbl.replace t.ids id (Open (kind = Op.Read));
    inc.invoke ~id ~kind ~time;
    if Option.is_none (inc.degraded ()) then
      t.open_cost <- t.open_cost + 1;
    Ok ()
  end

let respond t ~id ~result ~time =
  match Hashtbl.find_opt t.ids id with
  | None -> Error (Printf.sprintf "response for unknown op id #%d" id)
  | Some Done -> Error (Printf.sprintf "second response for op id #%d" id)
  | Some (Open is_read) ->
      if is_read && Option.is_none result then
        (* screened here because the offline prep rejects a completed
           read without a result; the op stays pending (conservative) *)
        Error (Printf.sprintf "read op #%d responded without a result" id)
      else begin
        let inc = match t.inc with Some i -> i | None -> assert false in
        t.last_t <- time;
        Hashtbl.replace t.ids id Done;
        inc.respond ~id ~result ~time;
        if Option.is_none (inc.degraded ()) then
          t.open_cost <- t.open_cost + 1;
        if inc.pending () = 0 then Ok (Some (retire t inc ~closed:true))
        else Ok None
      end

let flush t =
  match t.inc with
  | None -> None
  | Some inc -> Some (retire t inc ~closed:false)
