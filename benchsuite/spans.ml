(* The traced run's span recorder.

   A span brackets one call into a library layer: name, start, end, the
   enclosing span (its parent) and the id of the workload unit it served
   (an op batch, a line, a history, a config).  Spans are held in memory
   and written out when the run ends.  Self time — a span's duration
   minus the part its child spans cover — is folded per name as spans
   close, so aggregates cover the whole run while only the first
   [keep] raw spans are retained for the file.

   Disarmed, [span] is one branch and the call; the traced run measures
   each repetition both ways to report the recorder's own overhead. *)

type name = int

type t = {
  mutable armed : bool;
  mutable names : string array;
  mutable n_names : int;
  (* the open-span stack *)
  mutable depth : int;
  open_id : int array;
  open_start : int array;
  open_child : int array;
  (* per-name aggregates, indexed by name *)
  mutable count : int array;
  mutable total_ns : int array;
  mutable self_ns : int array;
  mutable samples : Stats.Buf.t array;
      (* a uniform reservoir of durations (ns), for percentiles *)
  rng : Random.State.t;
  (* retained raw spans: name, id, parent, unit, start, end *)
  mutable next_id : int;
  raw : int array;
  mutable n_raw : int;
}

let max_depth = 16
let reservoir = 65_536
let keep = 20_000

let create () =
  {
    armed = false;
    names = [||];
    n_names = 0;
    depth = 0;
    open_id = Array.make max_depth 0;
    open_start = Array.make max_depth 0;
    open_child = Array.make max_depth 0;
    count = [||];
    total_ns = [||];
    self_ns = [||];
    samples = [||];
    rng = Random.State.make [| 0x5FA25 |];
    next_id = 0;
    raw = Array.make (6 * keep) 0;
    n_raw = 0;
  }

let set_armed t b = t.armed <- b

let grow a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Resolve a name once, before the loop that records it. *)
let name t s =
  let rec find i =
    if i = t.n_names then begin
      if i = Array.length t.names then begin
        let n = max 8 (2 * i) in
        t.names <- grow t.names n "";
        t.count <- grow t.count n 0;
        t.total_ns <- grow t.total_ns n 0;
        t.self_ns <- grow t.self_ns n 0;
        t.samples <- Array.init n (fun j ->
            if j < i then t.samples.(j) else Stats.Buf.create ())
      end;
      t.names.(i) <- s;
      t.n_names <- i + 1;
      i
    end
    else if String.equal t.names.(i) s then i
    else find (i + 1)
  in
  find 0

let close t nm ~unit ~id ~parent ~start =
  let stop = Stats.now_ns () in
  let d = t.depth - 1 in
  t.depth <- d;
  let dur = stop - start in
  if d > 0 then t.open_child.(d - 1) <- t.open_child.(d - 1) + dur;
  let c = t.count.(nm) + 1 in
  t.count.(nm) <- c;
  t.total_ns.(nm) <- t.total_ns.(nm) + dur;
  t.self_ns.(nm) <- t.self_ns.(nm) + dur - t.open_child.(d);
  let r = t.samples.(nm) in
  if Stats.Buf.length r < reservoir then Stats.Buf.push r (float_of_int dur)
  else begin
    let j = Random.State.int t.rng c in
    if j < reservoir then r.Stats.Buf.a.(j) <- float_of_int dur
  end;
  if t.n_raw < keep then begin
    let o = 6 * t.n_raw in
    t.raw.(o) <- nm;
    t.raw.(o + 1) <- id;
    t.raw.(o + 2) <- parent;
    t.raw.(o + 3) <- unit;
    t.raw.(o + 4) <- start;
    t.raw.(o + 5) <- stop;
    t.n_raw <- t.n_raw + 1
  end

let span t nm ~unit f =
  if not t.armed then f ()
  else begin
    let d = t.depth in
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = if d = 0 then -1 else t.open_id.(d - 1) in
    t.open_id.(d) <- id;
    t.open_child.(d) <- 0;
    t.depth <- d + 1;
    let start = Stats.now_ns () in
    match f () with
    | v ->
        close t nm ~unit ~id ~parent ~start;
        v
    | exception e ->
        close t nm ~unit ~id ~parent ~start;
        raise e
  end

(* ----- reading back ------------------------------------------------------- *)

let find t s =
  let rec go i =
    if i = t.n_names then None
    else if String.equal t.names.(i) s then Some i
    else go (i + 1)
  in
  go 0

let total_s t s =
  match find t s with Some i -> float_of_int t.total_ns.(i) *. 1e-9 | None -> 0.

let self_s t s =
  match find t s with Some i -> float_of_int t.self_ns.(i) *. 1e-9 | None -> 0.

let p50_ns t s =
  match find t s with
  | Some i when Stats.Buf.length t.samples.(i) > 0 ->
      Stats.percentile (Stats.sorted (Stats.Buf.to_array t.samples.(i))) 0.5
  | _ -> nan

(* One [span_summary] row per name, then the retained raw spans. *)
let rows t ~workload =
  let module J = Obs.Json in
  let summaries =
    List.init t.n_names (fun i ->
        let s = Stats.sorted (Stats.Buf.to_array t.samples.(i)) in
        J.Obj
          [
            ("kind", J.Str "span_summary");
            ("workload", J.Str workload);
            ("name", J.Str t.names.(i));
            ("count", J.Int t.count.(i));
            ("total_ms", J.Float (float_of_int t.total_ns.(i) *. 1e-6));
            ("self_ms", J.Float (float_of_int t.self_ns.(i) *. 1e-6));
            ("p50_us", J.Float (Stats.percentile s 0.5 *. 1e-3));
            ("p99_us", J.Float (Stats.percentile s 0.99 *. 1e-3));
          ])
  in
  let spans =
    List.init t.n_raw (fun k ->
        let o = 6 * k in
        J.Obj
          [
            ("kind", J.Str "span");
            ("workload", J.Str workload);
            ("name", J.Str t.names.(t.raw.(o)));
            ("id", J.Int t.raw.(o + 1));
            ("parent", J.Int t.raw.(o + 2));
            ("unit", J.Int t.raw.(o + 3));
            ("start_ns", J.Int t.raw.(o + 4));
            ("end_ns", J.Int t.raw.(o + 5));
          ])
  in
  let recorded = Array.fold_left ( + ) 0 (Array.sub t.count 0 t.n_names) in
  summaries
  @ [
      J.Obj
        [
          ("kind", J.Str "span_totals");
          ("workload", J.Str workload);
          ("recorded", J.Int recorded);
          ("written", J.Int t.n_raw);
        ];
    ]
  @ spans
