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
   boundaries, entry sets and the op cap here are shared by both, and so
   is the one op table: it numbers a segment's ops 0, 1, 2, … in arrival
   order, and a decider knows ops only by that number.  A segmenter has
   one decider, made on its first segment and restarted on each later
   one, so that a stream of short segments allocates, and promotes, no
   checker per segment; [reassign] points a closed segmenter, decider
   and all, at another object. *)

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
  invoke : op:int -> kind:Op.kind -> time:int -> unit;
  respond : op:int -> result:V.t option -> time:int -> unit;
  degrade : Inc.reason -> unit;
  degraded : unit -> Inc.reason option;
  outcome : unit -> Inc.outcome;
  restart : entry:V.t list -> unit;
}

type decide = metrics:Obs.Metrics.t -> config -> entry:V.t list -> decider

let incremental ~metrics cfg ~entry =
  let inc = Inc.create ~metrics ~state_budget:cfg.state_budget ~entry () in
  {
    invoke = Inc.invoke inc;
    respond = Inc.respond inc;
    degrade = Inc.degrade inc;
    degraded = (fun () -> Inc.degraded inc);
    outcome = (fun () -> Inc.outcome inc);
    restart = (fun ~entry -> Inc.reset inc ~entry);
  }

type entry = { exact : bool; values : V.t list; overflow : bool }

let entry_exact values = { exact = true; values; overflow = false }

(* An op-table entry, in one int so that the table allocates no block
   per op: the op's number in the segment, whether it is a read, and
   whether it is still open. *)
let open_op ~op ~read = (op lsl 2) lor (if read then 2 else 0) lor 1
let is_open_op e = e land 1 = 1
let is_read_op e = e land 2 = 2
let op_number e = e lsr 2
let done_op e = e land lnot 1

type t = {
  mutable obj : string;
  cfg : config;
  metrics : Obs.Metrics.t;
  decide : decide;
  mutable index : int;
  mutable entry : entry;
  mutable dec : decider option; (* made on the first segment *)
  ids : (int, int) Hashtbl.t; (* this segment's op ids -> [open_op] *)
  mutable seg_writes : V.t list; (* distinct, reverse first-write order *)
  mutable writes_overflow : bool;
  mutable first_t : int;
  mutable last_t : int;
  mutable ops : int; (* invoked in this segment: the next op's number *)
  mutable pending : int; (* invoked in this segment and not responded *)
  mutable open_cost : int; (* events buffered while not degraded *)
}

let create ?(metrics = Obs.Metrics.global) ?(decide = incremental) ~config ~obj
    ~entry ~index () =
  if config.seg_cap < 1 || config.seg_cap > Linchk.Lincheck.max_ops then
    invalid_arg
      (Printf.sprintf "Segmenter.create: seg_cap %d outside 1..%d"
         config.seg_cap Linchk.Lincheck.max_ops);
  {
    obj;
    cfg = config;
    metrics;
    decide;
    index;
    entry;
    dec = None;
    ids = Hashtbl.create 64;
    seg_writes = [];
    writes_overflow = false;
    first_t = 0;
    last_t = 0;
    ops = 0;
    pending = 0;
    open_cost = 0;
  }

let obj t = t.obj
let index t = t.index
let entry t = t.entry
let is_open t = t.ops > 0
let open_cost t = t.open_cost

let reassign t ~obj ~entry ~index =
  if is_open t then invalid_arg "Segmenter.reassign: a segment is open";
  t.obj <- obj;
  t.entry <- entry;
  t.index <- index

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
  inc

let dedup_mem vs v = List.exists (V.equal v) vs

let note_write t v =
  if not (dedup_mem t.seg_writes v) then
    if List.length t.seg_writes >= t.cfg.values_cap then
      t.writes_overflow <- true
    else t.seg_writes <- v :: t.seg_writes

let shed t ~pending ~max_pending =
  if is_open t then begin
    (Option.get t.dec).degrade (Inc.Shed { pending; max_pending });
    t.open_cost <- 0
  end

(* Retire the current segment: decide it, compute the next entry set,
   reset per-segment state.  [closed] is false only at EOF flush. *)
let retire t inc ~closed =
  (* after a Fail or Unknown: anything the register could hold now, the
     old candidates plus everything this segment wrote *)
  let inexact out =
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
  let verdict_outcome, final_vals, next_entry =
    match inc.outcome () with
    | Inc.Pass finals ->
        let next =
          if closed then entry_exact finals
          else t.entry (* flush: stream over, entry unused *)
        in
        (Verdict.Ok_, (if closed then List.length finals else 0), next)
    | Inc.Fail -> inexact Verdict.Fail
    (* the op-cap reason reports the segment's final op count, which keeps
       growing after the trip — so the record matches what an offline
       count of the same segment would say *)
    | Inc.Unknown (Inc.Op_cap { cap; _ }) ->
        inexact (Verdict.Unknown (Inc.Op_cap { n = t.ops; cap }))
    | Inc.Unknown r -> inexact (Verdict.Unknown r)
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
  Hashtbl.reset t.ids;
  t.seg_writes <- [];
  t.writes_overflow <- false;
  t.ops <- 0;
  t.pending <- 0;
  t.open_cost <- 0;
  t.index <- t.index + 1;
  t.entry <- next_entry;
  v

let invoke t ~id ~kind ~time =
  if Hashtbl.mem t.ids id then
    Error (Printf.sprintf "duplicate op id #%d in segment %d" id t.index)
  else begin
    let inc = if is_open t then Option.get t.dec else start_segment t in
    let op = t.ops in
    if op = 0 then t.first_t <- time;
    t.last_t <- time;
    t.ops <- op + 1;
    t.pending <- t.pending + 1;
    (match kind with Op.Write v -> note_write t v | Op.Read -> ());
    Hashtbl.replace t.ids id (open_op ~op ~read:(kind = Op.Read));
    (* the op cap trips at the (cap+1)-th invoke, before the decider
       sees it *)
    if op = t.cfg.seg_cap then
      inc.degrade (Inc.Op_cap { n = op + 1; cap = t.cfg.seg_cap });
    inc.invoke ~op ~kind ~time;
    if Option.is_none (inc.degraded ()) then
      t.open_cost <- t.open_cost + 1;
    Ok ()
  end

let respond t ~id ~result ~time =
  match Hashtbl.find t.ids id with
  | exception Not_found ->
      Error (Printf.sprintf "response for unknown op id #%d" id)
  | e when not (is_open_op e) ->
      Error (Printf.sprintf "second response for op id #%d" id)
  | e ->
      if is_read_op e && Option.is_none result then
        (* screened here because the offline prep rejects a completed
           read without a result; the op stays pending (conservative) *)
        Error (Printf.sprintf "read op #%d responded without a result" id)
      else begin
        let inc = Option.get t.dec in
        t.last_t <- time;
        t.pending <- t.pending - 1;
        Hashtbl.replace t.ids id (done_op e);
        inc.respond ~op:(op_number e) ~result ~time;
        if Option.is_none (inc.degraded ()) then
          t.open_cost <- t.open_cost + 1;
        if t.pending = 0 then Ok (Some (retire t inc ~closed:true))
        else Ok None
      end

let flush t =
  if is_open t then Some (retire t (Option.get t.dec) ~closed:false) else None
