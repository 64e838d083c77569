module V = History.Value

(* The serving engine: line-oriented ingest over any number of objects,
   with quarantine (malformed or semantically impossible records are
   counted, reported and skipped — never fatal), backpressure (a bound
   on events buffered across all open segments; the segment that
   overflows it is shed to an explicit [Unknown] and costs O(1) per
   event from then on), and checkpointing at globally quiescent points.

   Everything observable — verdict records, their order, the quarantine
   and event counts — is a deterministic function of the configuration
   and the input lines, which is what makes [--resume] byte-identical
   and the offline self-check meaningful.

   An idle object is only its checkpoint record; an object that opens a
   segment borrows a segmenter (and its checker) from the free list until
   the segment retires, so memory is bounded by the open segments. *)

type config = {
  init : V.t; (* each object's initial register value *)
  seg : Segmenter.config;
  max_pending : int; (* events buffered across all open segments *)
}

let default_config =
  { init = V.Int 0; seg = Segmenter.default_config; max_pending = 100_000 }

(* an object between segments, or the segmenter of its open one *)
type obj = Idle of Checkpoint.obj_state | Open of Segmenter.t

type t = {
  cfg : config;
  metrics : Obs.Metrics.t;
  decide : Segmenter.decide;
  emit : Verdict.t -> unit;
  on_quarantine : line:int -> string -> unit;
  objects : (string, obj) Hashtbl.t;
  open_ids : (int, Segmenter.t) Hashtbl.t; (* open op id -> its segmenter *)
  mutable free : Segmenter.t list; (* segmenters with no open segment *)
  mutable lines : int;
  mutable events : int;
  mutable annotations : int;
  mutable quarantined : int;
  mutable shed_events : int;
  mutable ok : int;
  mutable fail : int;
  mutable unknown : int;
  mutable open_events : int;
  mutable last_time : int;
  mutable saved_lines : int; (* lines fed at the last save *)
  mutable saved_verdicts : int; (* verdicts at the last save, -1 before one *)
  mutable ended : [ `Clean | `Cut ] option; (* set by [finish] *)
  lines_c : Obs.Metrics.Counter.t;
  events_c : Obs.Metrics.Counter.t;
  quarantined_c : Obs.Metrics.Counter.t;
  shed_c : Obs.Metrics.Counter.t;
  verdict_ok_c : Obs.Metrics.Counter.t;
  verdict_fail_c : Obs.Metrics.Counter.t;
  verdict_unknown_c : Obs.Metrics.Counter.t;
  pending_g : Obs.Metrics.Gauge.t;
}

let create ?(metrics = Obs.Metrics.create ()) ?(decide = Segmenter.incremental)
    ?(config = default_config) ~emit ?(on_quarantine = fun ~line:_ _ -> ()) () =
  {
    cfg = config;
    metrics;
    decide;
    emit;
    on_quarantine;
    objects = Hashtbl.create 8;
    open_ids = Hashtbl.create 256;
    free = [];
    lines = 0;
    events = 0;
    annotations = 0;
    quarantined = 0;
    shed_events = 0;
    ok = 0;
    fail = 0;
    unknown = 0;
    open_events = 0;
    last_time = -1;
    saved_lines = 0;
    saved_verdicts = -1;
    ended = None;
    lines_c = Obs.Metrics.counter_h metrics "serve.lines";
    events_c = Obs.Metrics.counter_h metrics "serve.events";
    quarantined_c = Obs.Metrics.counter_h metrics "serve.quarantined";
    shed_c = Obs.Metrics.counter_h metrics "serve.shed_events";
    verdict_ok_c = Obs.Metrics.counter_h metrics "serve.verdicts.ok";
    verdict_fail_c = Obs.Metrics.counter_h metrics "serve.verdicts.fail";
    verdict_unknown_c = Obs.Metrics.counter_h metrics "serve.verdicts.unknown";
    pending_g = Obs.Metrics.gauge_h metrics "serve.open_events";
  }

let restore ?metrics ?config ~emit ?on_quarantine (ck : Checkpoint.t) =
  let t = create ?metrics ?config ~emit ?on_quarantine () in
  t.lines <- ck.Checkpoint.cursor;
  t.last_time <- ck.Checkpoint.last_time;
  t.events <- ck.Checkpoint.events;
  t.annotations <- ck.Checkpoint.annotations;
  t.quarantined <- ck.Checkpoint.quarantined;
  t.shed_events <- ck.Checkpoint.shed_events;
  t.ok <- ck.Checkpoint.ok;
  t.fail <- ck.Checkpoint.fail;
  t.unknown <- ck.Checkpoint.unknown;
  t.saved_lines <- ck.Checkpoint.cursor;
  t.saved_verdicts <- Checkpoint.verdicts ck;
  List.iter
    (fun (o : Checkpoint.obj_state) ->
      Hashtbl.replace t.objects o.Checkpoint.obj (Idle o))
    ck.Checkpoint.objects;
  t

let lines t = t.lines
let events t = t.events
let annotations t = t.annotations
let quarantined t = t.quarantined
let shed_events t = t.shed_events
let ok t = t.ok
let fail t = t.fail
let unknown t = t.unknown
let verdicts t = t.ok + t.fail + t.unknown
let objects t = Hashtbl.length t.objects

let quarantine t msg =
  t.quarantined <- t.quarantined + 1;
  Obs.Metrics.incr_h t.quarantined_c;
  t.on_quarantine ~line:t.lines msg

let emit_verdict t (v : Verdict.t) =
  (match v.Verdict.outcome with
  | Verdict.Ok_ ->
      t.ok <- t.ok + 1;
      Obs.Metrics.incr_h t.verdict_ok_c
  | Verdict.Fail ->
      t.fail <- t.fail + 1;
      Obs.Metrics.incr_h t.verdict_fail_c
  | Verdict.Unknown _ ->
      t.unknown <- t.unknown + 1;
      Obs.Metrics.incr_h t.verdict_unknown_c);
  t.emit v

(* [obj]'s open segmenter, or a free one pointed at [obj]'s record.  The
   record's name, not the line's, names the segmenter, so that an
   object's verdicts share one string. *)
let segmenter t obj =
  match Hashtbl.find_opt t.objects obj with
  | Some (Open s) -> s
  | found ->
      let { Checkpoint.obj; index; entry } =
        match found with
        | Some (Idle o) -> o
        | _ ->
            {
              Checkpoint.obj;
              index = 0;
              entry = Segmenter.entry_exact [ t.cfg.init ];
            }
      in
      let s =
        match t.free with
        | s :: rest ->
            t.free <- rest;
            Segmenter.reassign s ~obj ~entry ~index;
            s
        | [] ->
            Segmenter.create ~metrics:t.metrics ~decide:t.decide
              ~config:t.cfg.seg ~obj ~entry ~index ()
      in
      Hashtbl.replace t.objects obj (Open s);
      s

(* A segmenter whose segment retired goes back to the free list, and its
   object back to a checkpoint record. *)
let release t s =
  let obj = Segmenter.obj s
  and index = Segmenter.index s
  and entry = Segmenter.entry s in
  Hashtbl.replace t.objects obj (Idle { Checkpoint.obj; index; entry });
  t.free <- s :: t.free

(* Track the cross-object buffered-event count through a segmenter call:
   +1 per buffered event, -cost when a retire or shed releases a whole
   segment.  A zero delta on an {e accepted} event means it went to a
   degraded segment — that is exactly a shed (unbuffered) event.  A
   rejected (Error) call changes nothing and counts nothing. *)
let with_cost t seg f =
  let before = Segmenter.open_cost seg in
  let r = f () in
  let delta = Segmenter.open_cost seg - before in
  t.open_events <- t.open_events + delta;
  (match r with
  | Ok _ when delta = 0 ->
      t.shed_events <- t.shed_events + 1;
      Obs.Metrics.incr_h t.shed_c
  | _ -> ());
  Obs.Metrics.set_gauge_int_h t.pending_g t.open_events;
  r

let backpressure t seg =
  if t.open_events > t.cfg.max_pending then begin
    let cost = Segmenter.open_cost seg in
    Segmenter.shed seg ~pending:t.open_events ~max_pending:t.cfg.max_pending;
    t.open_events <- t.open_events - cost;
    Obs.Metrics.set_gauge_int_h t.pending_g t.open_events
  end

let process t time ev =
  if time < 0 then quarantine t (Printf.sprintf "negative event time %d" time)
  else if time <= t.last_time then
    (* strictly increasing, matching [Hist.of_events] well-formedness —
       what keeps the stream comparable to the offline checker *)
    quarantine t
      (Printf.sprintf "non-increasing time (t=%d after t=%d)" time t.last_time)
  else
    match ev with
    | Ingest.Invoke { op_id; obj; kind; proc = _ } -> (
        if Hashtbl.mem t.open_ids op_id then
          quarantine t
            (Printf.sprintf "duplicate invocation of open op id #%d" op_id)
        else
          let seg = segmenter t obj in
          match
            with_cost t seg (fun () -> Segmenter.invoke seg ~id:op_id ~kind ~time)
          with
          | Error e -> quarantine t e
          | Ok () ->
              t.last_time <- time;
              t.events <- t.events + 1;
              Obs.Metrics.incr_h t.events_c;
              Hashtbl.replace t.open_ids op_id seg;
              backpressure t seg)
    | Ingest.Respond { op_id; result } -> (
        match Hashtbl.find_opt t.open_ids op_id with
        | None ->
            quarantine t
              (Printf.sprintf "response without invocation (op id #%d)" op_id)
        | Some seg -> (
            match
              with_cost t seg (fun () ->
                  Segmenter.respond seg ~id:op_id ~result ~time)
            with
            | Error e -> quarantine t e
            | Ok retired ->
                t.last_time <- time;
                t.events <- t.events + 1;
                Obs.Metrics.incr_h t.events_c;
                Hashtbl.remove t.open_ids op_id;
                Option.iter
                  (fun v ->
                    release t seg;
                    emit_verdict t v)
                  retired))

let feed_line t line =
  t.lines <- t.lines + 1;
  Obs.Metrics.incr_h t.lines_c;
  if String.trim line = "" then ()
  else
    match Ingest.parse_line line with
    | Error e -> quarantine t e
    | Ok (Ingest.Annotation _) -> t.annotations <- t.annotations + 1
    | Ok (Ingest.Event { time; ev }) -> process t time ev

let sorted_objects t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.objects []
  |> List.sort String.compare

let quiescent t = Hashtbl.length t.open_ids = 0

let checkpoint t =
  if not (quiescent t) then None
  else
    Some
      {
        Checkpoint.cursor = t.lines;
        last_time = t.last_time;
        events = t.events;
        annotations = t.annotations;
        quarantined = t.quarantined;
        shed_events = t.shed_events;
        ok = t.ok;
        fail = t.fail;
        unknown = t.unknown;
        (* no open op: every object is a record *)
        objects =
          List.filter_map
            (fun obj ->
              match Hashtbl.find t.objects obj with
              | Idle o -> Some o
              | Open _ -> None)
            (sorted_objects t);
      }

let finish t =
  t.ended <- Some (if quiescent t then `Clean else `Cut);
  List.iter
    (fun obj ->
      match Hashtbl.find t.objects obj with
      | Open s ->
          let v = Segmenter.flush s in
          release t s;
          Option.iter (emit_verdict t) v
      | Idle _ -> ())
    (sorted_objects t);
  t.open_events <- 0;
  Hashtbl.reset t.open_ids;
  Obs.Metrics.set_gauge_int_h t.pending_g 0

let save_due t =
  let due =
    match t.ended with
    | Some `Cut -> false
    | Some `Clean -> true
    | None -> t.lines - t.saved_lines >= objects t
  in
  if not (due && quiescent t && verdicts t > t.saved_verdicts) then None
  else begin
    t.saved_lines <- t.lines;
    t.saved_verdicts <- verdicts t;
    checkpoint t
  end

let summary_json t =
  Obs.Json.Obj
    [
      ("kind", Obs.Json.Str "serve_summary");
      ("lines", Obs.Json.Int t.lines);
      ("events", Obs.Json.Int t.events);
      ("annotations", Obs.Json.Int t.annotations);
      ("quarantined", Obs.Json.Int t.quarantined);
      ("shed_events", Obs.Json.Int t.shed_events);
      ( "verdicts",
        Obs.Json.Obj
          [
            ("ok", Obs.Json.Int t.ok);
            ("fail", Obs.Json.Int t.fail);
            ("unknown", Obs.Json.Int t.unknown);
          ] );
    ]
