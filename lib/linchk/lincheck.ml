module V = History.Value
module Op = History.Op
module Hist = History.Hist

(* Checker observability: counters accumulate in the caller's registry
   (default: the global one); drivers measure a run by snapshot/delta,
   and a pool task passes its run's private registry (see Obs.Metrics
   and Simkit.Pool).  Counter handles are resolved once per search entry
   (never per DFS state) — see DESIGN.md "hot-path discipline". *)

(* Histories are encoded into 62-bit done-masks, so one object carries at
   most [max_ops] operations. *)
let max_ops = 62

exception Too_large of { n : int; cap : int }

(* The cap [rlin check] imposes for a given [-j].  The search is
   sequential at every [-j]; the formula is kept so that [rlin check]
   reports stay byte-identical, header included, until the argument is
   dropped.  Library entry points keep the full [max_ops] default. *)
let effective_cap ~jobs =
  let jobs = max 1 jobs in
  min max_ops (53 + (9 * (jobs - 1)))

(* The preprocessed search form of a history.  Write values are interned
   into dense ids (the initial value first) so a DFS state packs into two
   machine ints: the done-mask and the value id.  [wvid]/[rvid] carry,
   per op index, the interned id a write installs / a completed read
   requires ([rvid = -1] when the result can never be produced, or for
   writes). *)
type prepped = {
  ops : Op.t array; (* pending reads removed *)
  pred : int array; (* bitmask of ops that must precede op i *)
  complete_mask : int;
  init : V.t;
  init_vid : int;
  wvid : int array;
  rvid : int array;
}

(* Build the ops array straight from the event list in one pass:
   [Hist.ops]/[Hist.objects] re-derive through intermediate tables and
   lists, which is most of the prep cost on the small histories the
   experiments check (prep runs once per checked history, so its constant
   matters as much as the DFS). *)
let ops_of_events h =
  let module E = History.Event in
  let evs = Hist.events h in
  let n_inv =
    List.fold_left
      (fun acc { E.event; _ } ->
        match event with E.Invoke _ -> acc + 1 | _ -> acc)
      0 evs
  in
  if n_inv = 0 then [||]
  else begin
    let dummy = Op.make ~id:0 ~proc:0 ~obj:"" ~kind:Op.Read ~invoked:0 () in
    let all = Array.make n_inv dummy in
    let slot = ref 0 in
    let objs = ref [] in
    (* op lookup on respond is a backwards scan (the responding op is
       usually recent, and n <= 62 anyway) — no id table to allocate *)
    let find_slot op_id =
      let rec go i =
        if i < 0 then invalid_arg "Lincheck: response without invocation"
        else if (all.(i) : Op.t).id = op_id then i
        else go (i - 1)
      in
      go (!slot - 1)
    in
    List.iter
      (fun { E.time; event } ->
        match event with
        | E.Invoke { op_id; proc; obj; kind } ->
            if not (List.exists (String.equal obj) !objs) then
              objs := obj :: !objs;
            all.(!slot) <- Op.make ~id:op_id ~proc ~obj ~kind ~invoked:time ();
            incr slot
        | E.Respond { op_id; result } ->
            let i = find_slot op_id in
            all.(i) <- { all.(i) with responded = Some time; result })
      evs;
    (match !objs with
    | [] | [ _ ] -> ()
    | objs ->
        invalid_arg
          (Printf.sprintf "Lincheck: history spans %d objects; project first"
             (List.length objs)));
    all
  end

let prep ?(cap = max_ops) ~init h =
  if cap < 1 || cap > max_ops then
    invalid_arg
      (Printf.sprintf "Lincheck.prep: cap %d outside 1..%d" cap max_ops);
  let all = ops_of_events h in
  let kept o = Op.is_write o || Op.is_complete o in
  let n =
    Array.fold_left (fun acc o -> if kept o then acc + 1 else acc) 0 all
  in
  let ops =
    if n = Array.length all then all
    else begin
      let out = Array.make n all.(0) in
      let j = ref 0 in
      Array.iter
        (fun o ->
          if kept o then begin
            out.(!j) <- o;
            incr j
          end)
        all;
      out
    end
  in
  if n > cap then raise (Too_large { n; cap });
  Array.iter
    (fun (o : Op.t) ->
      if Op.is_read o && Op.is_complete o && Option.is_none o.result then
        invalid_arg
          (Printf.sprintf "Lincheck: completed read #%d has no recorded result"
             o.id))
    ops;
  (* the precedence pass is the O(n^2) core of prep: run it over plain
     int arrays ([Op.precedes o o'] is [responded o < invoked o'], with
     pending mapped to +inf so it never precedes anything) *)
  let inv_t = Array.map (fun (o : Op.t) -> o.invoked) ops in
  let resp_t =
    Array.map
      (fun (o : Op.t) ->
        match o.responded with Some r -> r | None -> max_int)
      ops
  in
  let pred = Array.make n 0 in
  for i = 0 to n - 1 do
    let inv_i = inv_t.(i) in
    let m = ref 0 in
    for j = 0 to n - 1 do
      if j <> i && resp_t.(j) < inv_i then m := !m lor (1 lsl j)
    done;
    pred.(i) <- !m
  done;
  let complete_mask = ref 0 in
  Array.iteri (fun i o -> if Op.is_complete o then complete_mask := !complete_mask lor (1 lsl i)) ops;
  (* Intern the reachable register values: the initial value plus every
     written value, deduplicated by V.equal (at most n + 1 of them, so
     the quadratic scan is nothing next to the O(n^2) pred pass). *)
  let table = Array.make (n + 1) init in
  let nvals = ref 1 in
  let lookup v =
    let rec go i =
      if i >= !nvals then -1 else if V.equal table.(i) v then i else go (i + 1)
    in
    go 0
  in
  let intern v =
    match lookup v with
    | -1 ->
        table.(!nvals) <- v;
        incr nvals;
        !nvals - 1
    | i -> i
  in
  let wvid =
    Array.map
      (fun (o : Op.t) ->
        match o.kind with Op.Write v -> intern v | Op.Read -> -1)
      ops
  in
  (* Read requirements resolve against the full table (a read may return
     a value written later in program order); a result outside the table
     can never be matched by any reachable state. *)
  let rvid =
    Array.map
      (fun (o : Op.t) ->
        match (o.kind, o.result) with
        | Op.Read, Some r -> lookup r
        | _ -> -1)
      ops
  in
  {
    ops;
    pred;
    complete_mask = !complete_mask;
    init;
    init_vid = 0;
    wvid;
    rvid;
  }

(* Core decision DFS with failure memoization.

   The inner loop is allocation-free: the state is (done-mask, interned
   value id), the failure memo is an open-addressed int-pair set keyed
   by that pair, and the counters are pre-resolved handles.  Candidate
   order (op index ascending) is the same as it ever was, so witnesses
   are unchanged.

   With an armed [trc], every [probe_interval] states a progress event
   (category "check") reports the search counters and frontier depth —
   the counter tracks of the Perfetto export.  Disarmed, the probe is
   the one [Tracer.armed] branch per state. *)
let probe_interval = 16_384

let decide ?(trc = Obs.Tracer.null) ~m p =
  let n = Array.length p.ops in
  let states = Obs.Metrics.counter_h m "linchk.states" in
  let memo_prunes = Obs.Metrics.counter_h m "linchk.memo_prunes" in
  let backtracks = Obs.Metrics.counter_h m "linchk.backtracks" in
  (* start tiny: most checked histories fail/succeed within a few dozen
     states, and the set doubles on demand for the big searches *)
  let failed = Ipset.create ~capacity:16 () in
  let rec go mask vid path =
    Obs.Metrics.incr_h states;
    if Obs.Tracer.armed trc then begin
      let s = Obs.Metrics.read_h states in
      if s mod probe_interval = 0 then
        ignore
          (Obs.Tracer.emit trc ~parent:(-1)
             ~args:
               [
                 ("states", Obs.Json.Int s);
                 ( "memo_prunes",
                   Obs.Json.Int (Obs.Metrics.read_h memo_prunes) );
                 ("backtracks", Obs.Json.Int (Obs.Metrics.read_h backtracks));
                 ("memo_size", Obs.Json.Int (Ipset.length failed));
                 ("depth", Obs.Json.Int (List.length path));
               ]
             ~sim:s ~cat:"check" "linchk.progress")
    end;
    if p.complete_mask land mask = p.complete_mask then Some (List.rev path)
    else if Ipset.mem failed ~k1:mask ~k2:vid then begin
      Obs.Metrics.incr_h memo_prunes;
      None
    end
    else begin
      let result = ref None in
      let i = ref 0 in
      while Option.is_none !result && !i < n do
        let idx = !i in
        incr i;
        if mask land (1 lsl idx) = 0 && p.pred.(idx) land mask = p.pred.(idx)
        then begin
          let o = p.ops.(idx) in
          if p.wvid.(idx) >= 0 then begin
            (* write: installs its interned value *)
            match go (mask lor (1 lsl idx)) p.wvid.(idx) (o :: path) with
            | Some _ as r -> result := r
            | None -> ()
          end
          else if p.rvid.(idx) = vid then begin
            (* read: linearizable only against the value it returned *)
            match go (mask lor (1 lsl idx)) vid (o :: path) with
            | Some _ as res -> result := res
            | None -> ()
          end
        end
      done;
      if Option.is_none !result then begin
        Obs.Metrics.incr_h backtracks;
        Ipset.add failed ~k1:mask ~k2:vid
      end;
      !result
    end
  in
  go 0 p.init_vid []

let decide_prepped ?(metrics = Obs.Metrics.global) ?tracer ?jobs:_ p =
  decide ?trc:tracer ~m:metrics p

let witness ?metrics ?tracer ~init h =
  decide_prepped ?metrics ?tracer (prep ~init h)

let check ?metrics ?tracer ~init h =
  Option.is_some (witness ?metrics ?tracer ~init h)

(* Unlike [decide], which stops at the first linearization, this visits
   every reachable (done-mask, value) state once and keeps the value of
   each terminal one (every completed op done); pending writes may still
   follow a terminal state, so the search goes on past it. *)
let finals ?(metrics = Obs.Metrics.global) ~init h =
  let p = prep ~init h in
  let n = Array.length p.ops in
  let states = Obs.Metrics.counter_h metrics "linchk.states" in
  let values = Array.make (n + 1) init in
  Array.iteri
    (fun i (o : Op.t) ->
      match o.kind with Op.Write v -> values.(p.wvid.(i)) <- v | Op.Read -> ())
    p.ops;
  let final = Array.make (n + 1) false in
  let seen = Ipset.create ~capacity:16 () in
  let rec go mask vid =
    if not (Ipset.mem seen ~k1:mask ~k2:vid) then begin
      Ipset.add seen ~k1:mask ~k2:vid;
      Obs.Metrics.incr_h states;
      if p.complete_mask land mask = p.complete_mask then final.(vid) <- true;
      for idx = 0 to n - 1 do
        if mask land (1 lsl idx) = 0 && p.pred.(idx) land mask = p.pred.(idx)
        then
          if p.wvid.(idx) >= 0 then go (mask lor (1 lsl idx)) p.wvid.(idx)
          else if p.rvid.(idx) = vid then go (mask lor (1 lsl idx)) vid
      done
    end
  in
  go 0 p.init_vid;
  List.filteri (fun vid _ -> final.(vid)) (Array.to_list values)

let check_multi ?metrics ~init_of h =
  List.for_all
    (fun obj -> check ?metrics ~init:(init_of obj) (Hist.project h ~obj))
    (Hist.objects h)

(* The scope of a forced id prefix: the selected subsequence of the
   linearization (e.g. all ops, only writes, only reads) must follow the
   prefix.  This implements the paper's §7 generalization — strong
   linearizability with respect to a subset O of operations. *)
type scope = Op.t -> bool

let all_ops : scope = fun _ -> true

(* Enumeration (no memoization: we need all solutions, bounded by limit). *)
let enum ~m p ~forced ~scope ~limit ~collect =
  let n = Array.length p.ops in
  let forced = Array.of_list forced in
  let nforced = Array.length forced in
  let states = Obs.Metrics.counter_h m "linchk.enum.states" in
  let solutions = Obs.Metrics.counter_h m "linchk.enum.solutions" in
  let out = ref [] in
  let count = ref 0 in
  let seen = Hashtbl.create 64 in
  let emit path =
    let sol = List.rev path in
    let key = collect sol in
    if not (Hashtbl.mem seen key) then begin
      Obs.Metrics.incr_h solutions;
      Hashtbl.add seen key ();
      out := sol :: !out;
      incr count
    end
  in
  let rec go mask cursor vid path =
    Obs.Metrics.incr_h states;
    if !count >= limit then ()
    else begin
      if p.complete_mask land mask = p.complete_mask && cursor = nforced then
        emit path;
      (* keep extending: pending writes may still be appended, and other
         interleavings explored *)
      for idx = 0 to n - 1 do
        if
          !count < limit
          && mask land (1 lsl idx) = 0
          && p.pred.(idx) land mask = p.pred.(idx)
        then begin
          let o = p.ops.(idx) in
          let allowed_by_forced, cursor' =
            if cursor < nforced && scope o then
              if o.id = forced.(cursor) then (true, cursor + 1)
              else (false, cursor)
            else (true, cursor)
          in
          if allowed_by_forced then
            if p.wvid.(idx) >= 0 then
              go (mask lor (1 lsl idx)) cursor' p.wvid.(idx) (o :: path)
            else if p.rvid.(idx) = vid then
              go (mask lor (1 lsl idx)) cursor' vid (o :: path)
        end
      done
    end
  in
  go 0 0 p.init_vid [];
  List.rev !out

let ids ops = List.map (fun (o : Op.t) -> o.id) ops

let enumerate_prepped ?(metrics = Obs.Metrics.global) p ~limit =
  enum ~m:metrics p ~forced:[] ~scope:all_ops ~limit ~collect:ids

let enumerate ?metrics ~init h ~limit =
  enumerate_prepped ?metrics (prep ~init h) ~limit

let sel_ids sel ops = ids (List.filter sel ops)

(* [enum ~collect] already dedups solutions by their [collect] projection,
   so each returned linearization has a distinct key: one projection per
   solution suffices, and the former List.sort_uniq degenerates to a
   plain sort (kept — candidate order feeds the Treecheck search, which
   relies on it being deterministic and sorted). *)

let orders_extending_prepped ?(metrics = Obs.Metrics.global) p ~sel ~prefix
    ~limit =
  enum ~m:metrics p ~forced:prefix ~scope:sel ~limit ~collect:(sel_ids sel)
  |> List.map (sel_ids sel)
  |> List.sort compare
