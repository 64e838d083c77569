type policy = Every | Explicit

type 'a node_log = {
  mutable records : 'a list; (* newest first *)
  mutable len_ : int;
  mutable durable_ : int; (* durable frontier: oldest [durable_] records *)
  mutable lost_ : int;
}

type 'a t = {
  logs : 'a node_log array;
  policy : policy;
  auto_compact : bool;
  appends_c : Obs.Metrics.Counter.t;
  persists_c : Obs.Metrics.Counter.t;
  lost_c : Obs.Metrics.Counter.t;
  compacted_c : Obs.Metrics.Counter.t;
}

let create ?(metrics = Obs.Metrics.global) ?(policy = Every)
    ?(auto_compact = false) ~n () =
  if n <= 0 then invalid_arg "Stable.create: n must be > 0";
  {
    logs =
      Array.init n (fun _ ->
          { records = []; len_ = 0; durable_ = 0; lost_ = 0 });
    policy;
    auto_compact;
    appends_c = Obs.Metrics.counter_h metrics "stable.appends";
    persists_c = Obs.Metrics.counter_h metrics "stable.persists";
    lost_c = Obs.Metrics.counter_h metrics "stable.lost";
    compacted_c = Obs.Metrics.counter_h metrics "stable.compacted";
  }

let node_log t node =
  if node < 0 || node >= Array.length t.logs then
    invalid_arg (Printf.sprintf "Stable: node %d out of range" node);
  t.logs.(node)

(* Checkpoint semantics: the newest durable record supersedes every older
   durable one — recovery only ever reads {!last_durable} — so the
   superseded prefix can be dropped without changing what any crash or
   recovery observes.  The volatile tail is untouched (a crash must still
   chop exactly it).  Returns the number of records dropped. *)
let compact t ~node =
  let l = node_log t node in
  if l.durable_ <= 1 then 0
  else begin
    let keep = l.len_ - l.durable_ + 1 in
    let dropped = l.durable_ - 1 in
    l.records <- List.filteri (fun i _ -> i < keep) l.records;
    l.len_ <- keep;
    l.durable_ <- 1;
    Obs.Metrics.incr_h ~by:dropped t.compacted_c;
    dropped
  end

let persist t ~node =
  let l = node_log t node in
  let newly = l.len_ - l.durable_ in
  if newly > 0 then begin
    l.durable_ <- l.len_;
    Obs.Metrics.incr_h ~by:newly t.persists_c;
    (* bounded-log mode: every sync point compacts, so a node's log holds
       at most one durable record plus the volatile tail — flat memory
       across million-write fleet runs *)
    if t.auto_compact then ignore (compact t ~node : int)
  end

let append t ~node v =
  let l = node_log t node in
  l.records <- v :: l.records;
  l.len_ <- l.len_ + 1;
  Obs.Metrics.incr_h t.appends_c;
  match t.policy with Every -> persist t ~node | Explicit -> ()

let crash t ~node =
  let l = node_log t node in
  let dropped = l.len_ - l.durable_ in
  if dropped > 0 then begin
    let rec chop k xs = if k = 0 then xs else chop (k - 1) (List.tl xs) in
    l.records <- chop dropped l.records;
    l.len_ <- l.durable_;
    l.lost_ <- l.lost_ + dropped;
    Obs.Metrics.incr_h ~by:dropped t.lost_c
  end;
  dropped

let last t ~node =
  match (node_log t node).records with [] -> None | v :: _ -> Some v

let last_durable t ~node =
  let l = node_log t node in
  if l.durable_ = 0 then None
  else Some (List.nth l.records (l.len_ - l.durable_))

let log t ~node = List.rev (node_log t node).records
let durable_len t ~node = (node_log t node).durable_
let len t ~node = (node_log t node).len_
let lost t ~node = (node_log t node).lost_
