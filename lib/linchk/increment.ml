module V = History.Value
module Op = History.Op

(* Incremental single-object linearizability over an event stream.

   [Lincheck.decide] explores the DFS tree of (done-mask, value-id)
   states over a *finished* history.  This module maintains, instead,
   the full *reachable set* R of those states over a growing prefix:
   after each event, R = { (mask, vid) | some linearization of a subset
   of the ops seen so far sets exactly [mask] and leaves the register
   holding value [vid] }, under exactly [decide]'s availability rules
   (op not yet taken, every really-preceding op taken, reads only
   against the value they returned).

   Keeping the whole reachable set — not just a "must linearize
   responded ops now" frontier — is what makes the online verdict agree
   with the offline one.  The cheap frontier is unsound: with
   R(0) concurrent to W(1) where the read responds after the write
   begins, the read must linearize *before* the write even though its
   value is unknown at the write's invocation.  The reachable set keeps
   both worlds alive until the history itself decides.

   At a quiescent point (every invoked op responded) the terminal states
   (mask ⊇ complete-mask) witness linearizability of the whole segment,
   and their vids are exactly the register values the segment can leave
   behind — the entry set of the next segment (see Serve.Segmenter and
   DESIGN.md §15).

   Hot-path discipline matches Lincheck: states are two machine ints in
   an {!Ipset} plus two parallel growth arrays (insertion order = the
   deterministic iteration order), values are interned into dense ids,
   and the metric handles are resolved once at [create]. *)

type reason =
  | Op_cap of { n : int; cap : int }
  | State_budget of { states : int; budget : int }
  | Shed of { pending : int; max_pending : int }
  | Entry_overflow of { cap : int }

let reason_cause = function
  | Op_cap _ -> "op-cap"
  | State_budget _ -> "state-budget"
  | Shed _ -> "shed"
  | Entry_overflow _ -> "entry-overflow"

type outcome = Pass of V.t list | Fail | Unknown of reason

let default_state_budget = 2_000_000

type t = {
  state_budget : int;
  (* ops, as parallel growth arrays indexed by arrival order *)
  mutable n : int;
  mutable inv_t : int array;
  mutable resp_t : int array; (* max_int while pending *)
  mutable pred : int array; (* bitmask of ops that really precede op i *)
  mutable wvid : int array; (* interned written value, -1 for reads *)
  mutable rvid : int array; (* required read value, -1 if unknown/unmatchable *)
  mutable complete_mask : int;
  (* reads that responded with a value nobody has written (yet): they
     resolve retroactively if a later write interns that value, exactly
     like the offline prep's whole-table rvid lookup *)
  mutable unresolved : (int * V.t) list;
  (* interned register values: entry values first, then writes in
     first-write order *)
  mutable vals : V.t array;
  mutable nvals : int;
  (* the reachable set: membership in [set], iteration order in the
     st_* arrays *)
  mutable set : Ipset.t;
  mutable st_mask : int array;
  mutable st_vid : int array;
  mutable st_n : int;
  mutable degraded : reason option;
  states_c : Obs.Metrics.Counter.t;
  events_c : Obs.Metrics.Counter.t;
}

let states t = t.st_n
let degraded t = t.degraded

(* Degradation frees the frontier immediately — a shed or over-budget
   segment keeps consuming events (the caller still counts them to detect
   quiescence) but costs O(1) per event from here on. *)
let degrade t reason =
  if Option.is_none t.degraded then begin
    t.degraded <- Some reason;
    t.set <- Ipset.create ~capacity:8 ();
    t.st_mask <- [||];
    t.st_vid <- [||];
    t.st_n <- 0;
    t.unresolved <- []
  end

let grow a n ~zero =
  let b = Array.make (2 * Array.length a) zero in
  Array.blit a 0 b 0 n;
  b

let ensure_ops t =
  if t.n >= Array.length t.inv_t then begin
    t.inv_t <- grow t.inv_t t.n ~zero:0;
    t.resp_t <- grow t.resp_t t.n ~zero:0;
    t.pred <- grow t.pred t.n ~zero:0;
    t.wvid <- grow t.wvid t.n ~zero:0;
    t.rvid <- grow t.rvid t.n ~zero:0
  end

let ensure_states t =
  if t.st_n >= Array.length t.st_mask then begin
    t.st_mask <- grow t.st_mask t.st_n ~zero:0;
    t.st_vid <- grow t.st_vid t.st_n ~zero:0
  end

let add_state t mask vid =
  if Option.is_none t.degraded && not (Ipset.mem t.set ~k1:mask ~k2:vid) then begin
    if t.st_n >= t.state_budget then
      degrade t
        (State_budget { states = t.st_n + 1; budget = t.state_budget })
    else begin
      Ipset.add t.set ~k1:mask ~k2:vid;
      ensure_states t;
      t.st_mask.(t.st_n) <- mask;
      t.st_vid.(t.st_n) <- vid;
      t.st_n <- t.st_n + 1;
      Obs.Metrics.incr_h t.states_c
    end
  end

(* Attempt op [idx] from state [si] — the availability rules of
   [Lincheck.decide]'s candidate loop, verbatim. *)
let try_from t si idx =
  if Option.is_none t.degraded then begin
    let mask = t.st_mask.(si) in
    let bit = 1 lsl idx in
    if mask land bit = 0 && t.pred.(idx) land mask = t.pred.(idx) then begin
      let w = t.wvid.(idx) in
      if w >= 0 then add_state t (mask lor bit) w
      else if t.rvid.(idx) = t.st_vid.(si) then
        add_state t (mask lor bit) t.st_vid.(si)
    end
  end

(* Try one op against every state below [bound] (a newly enabled op must
   be offered to the whole existing set: every (state, op) pair is
   attempted exactly when the later of the two appears). *)
let scan_op t idx ~bound =
  let si = ref 0 in
  while Option.is_none t.degraded && !si < bound do
    try_from t !si idx;
    incr si
  done

(* Close over the states appended at index >= [from]: each new state is
   offered every op, and states it spawns are appended and processed in
   turn (a worklist by array cursor). *)
let closure t ~from =
  let cur = ref from in
  while Option.is_none t.degraded && !cur < t.st_n do
    let idx = ref 0 in
    while Option.is_none t.degraded && !idx < t.n do
      try_from t !cur !idx;
      incr idx
    done;
    incr cur
  done

let lookup t v =
  let rec go i =
    if i >= t.nvals then -1 else if V.equal t.vals.(i) v then i else go (i + 1)
  in
  go 0

let ensure_vals t =
  if t.nvals >= Array.length t.vals then
    t.vals <- grow t.vals t.nvals ~zero:V.Bot

(* A freshly interned value may be exactly what an already-responded
   read has been waiting for; resolving it re-offers that read to every
   current state (the caller's closure covers states added later). *)
let resolve_unresolved t v vid =
  let resolved, keep =
    List.partition (fun (_, rv) -> V.equal rv v) t.unresolved
  in
  t.unresolved <- keep;
  List.iter
    (fun (idx, _) ->
      t.rvid.(idx) <- vid;
      scan_op t idx ~bound:t.st_n)
    resolved

let intern t v =
  match lookup t v with
  | -1 ->
      ensure_vals t;
      t.vals.(t.nvals) <- v;
      t.nvals <- t.nvals + 1;
      let vid = t.nvals - 1 in
      resolve_unresolved t v vid;
      vid
  | i -> i

(* create's sizes: the op arrays never outgrow 64 slots, because a
   segment holds at most [Lincheck.max_ops] ops *)
let ops0 = 16
let vals0 = 8
let states0 = 64

(* A reset keeps an array or a state set of at most this many slots and
   gives a larger one back for create's size.  A reused checker lives
   as long as the stream, so what it keeps costs memory for good, and
   one segment may reach [state_budget] states; 512 slots hold the
   largest set (256 states) of the serve benchmark's 12-op segments,
   which regrowing at every segment would allocate again. *)
let keep_slots = 512

let seed t ~entry = List.iter (fun v -> add_state t 0 (intern t v)) entry

let create ?(metrics = Obs.Metrics.create ())
    ?(state_budget = default_state_budget) ~entry () =
  if entry = [] then invalid_arg "Increment.create: empty entry set";
  let t =
    {
      state_budget = max 1 state_budget;
      n = 0;
      inv_t = Array.make ops0 0;
      resp_t = Array.make ops0 0;
      pred = Array.make ops0 0;
      wvid = Array.make ops0 0;
      rvid = Array.make ops0 0;
      complete_mask = 0;
      unresolved = [];
      vals = Array.make vals0 V.Bot;
      nvals = 0;
      set = Ipset.create ~capacity:states0 ();
      st_mask = Array.make states0 0;
      st_vid = Array.make states0 0;
      st_n = 0;
      degraded = None;
      states_c = Obs.Metrics.counter_h metrics "linchk.inc.states";
      events_c = Obs.Metrics.counter_h metrics "linchk.inc.events";
    }
  in
  seed t ~entry;
  t

(* Back to what [create] sets, on the storage the last segment left:
   cleared in place where it is of a size to keep, rebuilt where
   [degrade] freed it or it grew past [keep_slots].  The op arrays need
   no clearing: a slot is written by [invoke] before anything reads it. *)
let reset t ~entry =
  if entry = [] then invalid_arg "Increment.reset: empty entry set";
  let keep slots = slots >= states0 && slots <= keep_slots in
  t.n <- 0;
  t.complete_mask <- 0;
  t.unresolved <- [];
  if Array.length t.vals <= keep_slots then Array.fill t.vals 0 t.nvals V.Bot
  else t.vals <- Array.make vals0 V.Bot;
  t.nvals <- 0;
  if keep (Ipset.capacity t.set) then Ipset.clear t.set
  else t.set <- Ipset.create ~capacity:states0 ();
  if not (keep (Array.length t.st_mask)) then begin
    t.st_mask <- Array.make states0 0;
    t.st_vid <- Array.make states0 0
  end;
  t.st_n <- 0;
  t.degraded <- None;
  seed t ~entry

let invoke t ~op ~kind ~time =
  Obs.Metrics.incr_h t.events_c;
  if Option.is_none t.degraded then begin
    if op <> t.n || op >= Lincheck.max_ops then
      invalid_arg
        (Printf.sprintf "Increment.invoke: op %d where %d was due (at most %d)"
           op t.n Lincheck.max_ops);
    ensure_ops t;
    t.inv_t.(op) <- time;
    t.resp_t.(op) <- max_int;
    let m = ref 0 in
    for j = 0 to op - 1 do
      if t.resp_t.(j) < time then m := !m lor (1 lsl j)
    done;
    t.pred.(op) <- !m;
    let old_st = t.st_n in
    (match kind with
    | Op.Write v ->
        t.wvid.(op) <- intern t v;
        t.rvid.(op) <- -1
    | Op.Read ->
        t.wvid.(op) <- -1;
        t.rvid.(op) <- -1);
    t.n <- op + 1;
    (* a fresh write is available at once; a fresh read matches no value
       yet — either way, offer it to the existing set and close over
       whatever appears *)
    scan_op t op ~bound:t.st_n;
    closure t ~from:old_st
  end

(* An op invoked after degradation was never stored, but then the
   checker is still degraded when it responds: only the count matters. *)
let respond t ~op ~result ~time =
  Obs.Metrics.incr_h t.events_c;
  if Option.is_none t.degraded then begin
    t.resp_t.(op) <- time;
    t.complete_mask <- t.complete_mask lor (1 lsl op);
    if t.wvid.(op) < 0 then
      match result with
      | None -> () (* screened upstream; an unmatchable read *)
      | Some v -> (
          match lookup t v with
          | -1 -> t.unresolved <- (op, v) :: t.unresolved
          | vid ->
              t.rvid.(op) <- vid;
              let old_st = t.st_n in
              scan_op t op ~bound:old_st;
              closure t ~from:old_st)
  end

let outcome t =
  match t.degraded with
  | Some r -> Unknown r
  | None ->
      let seen = Array.make (max 1 t.nvals) false in
      let found = ref 0 in
      for s = 0 to t.st_n - 1 do
        if
          t.complete_mask land t.st_mask.(s) = t.complete_mask
          && not seen.(t.st_vid.(s))
        then begin
          seen.(t.st_vid.(s)) <- true;
          incr found
        end
      done;
      if !found = 0 then Fail
      else begin
        let vals = ref [] in
        for v = t.nvals - 1 downto 0 do
          if seen.(v) then vals := t.vals.(v) :: !vals
        done;
        Pass !vals
      end
