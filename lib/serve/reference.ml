module V = History.Value
module Op = History.Op
module E = History.Event
module Hist = History.Hist
module Inc = Linchk.Increment

(* The offline oracle behind [rlin serve --self-check]: the engine with
   its per-segment decider swapped.  [offline] buffers a segment's events
   and decides them with [Lincheck.check]; the screens, boundaries and
   entry sets are the engine's own.  Resource degradations (state
   budget, shed) have no offline counterpart, which is why
   [compare_verdicts] skips an object's tail after its first one. *)

type result = { verdicts : Verdict.t list }

(* ---- offline decision of one segment ---- *)

(* The decider sees one object, whose name it is not told. *)
let obj = "offline"

(* Buffer the segment's events and decide them at [outcome].  No budget
   applies here: the segmenter trips the op cap through [degrade].
   [restart] forgets the segment: its events and entry set. *)
let offline ~metrics (_ : Segmenter.config) ~entry =
  let entry = ref entry in
  let revents = ref [] in
  let degraded = ref None in
  let degrade r =
    if Option.is_none !degraded then begin
      degraded := Some r;
      revents := []
    end
  in
  let buffer time event =
    if Option.is_none !degraded then revents := { E.time; event } :: !revents
  in
  (* ops are numbered by the segmenter, so the number is the op id.
     [Hist] well-formedness also demands sequential processes; the
     stream's proc ids are irrelevant to linearizability (only intervals
     matter), so every op gets its own process and the constraint holds
     vacuously *)
  let invoke ~op ~kind ~time =
    buffer time (E.Invoke { op_id = op; proc = op; obj; kind })
  in
  let respond ~op ~result ~time =
    buffer time (E.Respond { op_id = op; result })
  in
  let outcome () =
    match !degraded with
    | Some r -> Inc.Unknown r
    | None ->
        let events = List.rev !revents in
        let h = Hist.of_events_exn events in
        (* the values some linearization from some entry value leaves *)
        let finals =
          List.concat_map
            (fun init -> Linchk.Lincheck.finals ~metrics ~init h)
            !entry
        in
        if finals = [] then Inc.Fail
        else
          (* in candidate order: the entry values, then every value the
             segment wrote, in first-write order, each once *)
          let written =
            List.filter_map
              (fun { E.event; _ } ->
                match event with
                | E.Invoke { kind = Op.Write v; _ } -> Some v
                | _ -> None)
              events
          in
          let add acc v =
            if List.exists (V.equal v) acc then acc else acc @ [ v ]
          in
          let candidates = List.fold_left add [] (!entry @ written) in
          Inc.Pass
            (List.filter
               (fun v -> List.exists (V.equal v) finals)
               candidates)
  in
  {
    Segmenter.invoke;
    respond;
    degrade;
    degraded = (fun () -> !degraded);
    outcome;
    restart =
      (fun ~entry:next ->
        entry := next;
        revents := [];
        degraded := None);
  }

let run ?(config = Engine.default_config) lines =
  let rverdicts = ref [] in
  let engine =
    Engine.create ~metrics:(Obs.Metrics.create ()) ~decide:offline
      ~config:{ config with Engine.max_pending = max_int }
      ~emit:(fun v -> rverdicts := v :: !rverdicts)
      ()
  in
  List.iter (Engine.feed_line engine) lines;
  Engine.finish engine;
  { verdicts = List.rev !rverdicts }

(* ---- comparison, the --self-check core ---- *)

(* An [Unknown] whose reason the offline decider cannot mirror. *)
let resource_unknown (v : Verdict.t) =
  match v.Verdict.outcome with
  | Verdict.Unknown (Inc.State_budget _ | Inc.Shed _) -> true
  | _ -> false

type comparison = {
  matched : int;
  skipped : int;
  mismatches : (Verdict.t option * Verdict.t option) list;
}

let agreed c = c.mismatches = []

(* Pair engine and reference verdicts by (object, segment index).  Once
   the engine reports a resource-[Unknown] for an object, its entry sets
   diverge from the oracle's for good — every later verdict on that
   object is skipped rather than compared. *)
let compare_verdicts ~engine ~reference =
  let tainted = Hashtbl.create 8 in
  let key (v : Verdict.t) = (v.Verdict.obj, v.Verdict.segment) in
  let ref_tbl = Hashtbl.create 64 in
  List.iter (fun v -> Hashtbl.replace ref_tbl (key v) v) reference;
  let matched = ref 0 and skipped = ref 0 and mismatches = ref [] in
  List.iter
    (fun (ev : Verdict.t) ->
      let k = key ev in
      let rv = Hashtbl.find_opt ref_tbl k in
      Hashtbl.remove ref_tbl k;
      if Hashtbl.mem tainted ev.Verdict.obj then incr skipped
      else if resource_unknown ev then begin
        Hashtbl.replace tainted ev.Verdict.obj ();
        incr skipped
      end
      else
        match rv with
        | Some rv when Verdict.equal ev rv -> incr matched
        | Some rv -> mismatches := (Some ev, Some rv) :: !mismatches
        | None -> mismatches := (Some ev, None) :: !mismatches)
    engine;
  (* reference verdicts the engine never produced *)
  Hashtbl.iter
    (fun (obj, _) rv ->
      if Hashtbl.mem tainted obj then incr skipped
      else mismatches := (None, Some rv) :: !mismatches)
    ref_tbl;
  { matched = !matched; skipped = !skipped; mismatches = List.rev !mismatches }
