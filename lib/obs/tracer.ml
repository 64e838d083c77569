(* Flight recorder: a bounded ring of typed events.

   The recording path is built around one invariant: when the tracer is
   not armed, instrumented code pays exactly one branch ([armed t] is a
   bare field read) and allocates nothing.  Call sites therefore guard
   every [emit] — including the construction of its [~args] list — behind
   [if Tracer.armed t then ...]; [emit] itself re-checks and returns [-1]
   when disarmed, but by then the caller has already paid for the event
   record, so the guard is the contract, not a convenience.

   Events are stamped with a per-tracer sequence number which doubles as
   the event's identity: causal parents are sequence numbers, and the
   message-id a [Net] send event returns is the id its deliver events
   point back at.  The ring keeps the last [capacity] events; older ones
   are overwritten in place (the post-mortem use case: a violation wants
   the last K events, not the first K). *)

type event = {
  seq : int;  (** per-tracer, dense from 0 *)
  sim : int;  (** scheduler step clock (checker probes: states/nodes) *)
  track : int;  (** node/fiber pid; [-1] = the run itself *)
  cat : string;  (** "sched" | "net" | "reg" | "check" *)
  name : string;
  parent : int;  (** causal parent's [seq]; [-1] = root *)
  args : (string * Json.t) list;
}

type sink = event -> unit

type t = {
  mutable armed : bool;
  mutable next : int;  (** next sequence number *)
  ring : event option array;
  mutable ctx : int;  (** ambient causal parent, [-1] when none *)
  mutable sink : sink option;
}

let create ?(capacity = 65536) ?(armed = true) () =
  if capacity <= 0 then invalid_arg "Tracer.create: capacity must be positive";
  { armed; next = 0; ring = Array.make capacity None; ctx = -1; sink = None }

(* The shared never-armed tracer: the default everywhere a tracer is
   optional.  Its ring has capacity 1 so it costs nothing; arming it is a
   programming error (state would be shared process-wide). *)
let null = { armed = false; next = 0; ring = [| None |]; ctx = -1; sink = None }

let armed t = t.armed

let set_armed t on =
  if on && t == null then invalid_arg "Tracer.set_armed: cannot arm Tracer.null";
  t.armed <- on

let capacity t = Array.length t.ring
let ctx t = t.ctx
let set_ctx t seq = if t.armed then t.ctx <- seq
let set_sink t s = t.sink <- s

let emit t ?(track = -1) ?parent ?(args = []) ~sim ~cat name =
  if not t.armed then -1
  else begin
    let seq = t.next in
    t.next <- seq + 1;
    let parent = match parent with Some p -> p | None -> t.ctx in
    let ev = { seq; sim; track; cat; name; parent; args } in
    t.ring.(seq mod Array.length t.ring) <- Some ev;
    (match t.sink with Some f -> f ev | None -> ());
    seq
  end

let emitted t = t.next

let clear t =
  t.next <- 0;
  t.ctx <- -1;
  Array.fill t.ring 0 (Array.length t.ring) None

(* Retained events, oldest first.  The ring index of seq [s] is
   [s mod capacity]; the oldest retained seq is [max 0 (next - capacity)]. *)
let events t =
  let cap = Array.length t.ring in
  let lo = Stdlib.max 0 (t.next - cap) in
  let rec go s acc =
    if s < lo then acc
    else
      match t.ring.(s mod cap) with
      | Some ev -> go (s - 1) (ev :: acc)
      | None -> go (s - 1) acc
  in
  go (t.next - 1) []

(* ----- JSON ----------------------------------------------------------------

   Events carry no wall clock: event streams must be byte-identical
   across [-j 1]/[-j 2] and across re-executions of the same config (CI
   diffs them, the corpus replays them). *)

let event_json ev =
  let base =
    [
      ("kind", Json.Str "trace_event");
      ("seq", Json.Int ev.seq);
      ("t", Json.Int ev.sim);
      ("track", Json.Int ev.track);
      ("cat", Json.Str ev.cat);
      ("name", Json.Str ev.name);
      ("parent", Json.Int ev.parent);
    ]
  in
  let args = if ev.args = [] then [] else [ ("args", Json.Obj ev.args) ] in
  Json.Obj (base @ args)

let event_of_json j =
  let ( let* ) = Result.bind in
  Result.map_error (( ^ ) "trace_event: ")
    (let* () =
       Json.field "kind"
         (function Json.Str "trace_event" -> Some () | _ -> None)
         j
     in
     let* seq = Json.field "seq" Json.to_int_opt j in
     let* sim = Json.field "t" Json.to_int_opt j in
     let* track = Json.field "track" Json.to_int_opt j in
     let* cat = Json.field "cat" Json.to_string_opt j in
     let* name = Json.field "name" Json.to_string_opt j in
     let* parent = Json.field "parent" Json.to_int_opt j in
     let* args =
       Json.field_or "args" [] (function Json.Obj kv -> Some kv | _ -> None) j
     in
     Ok { seq; sim; track; cat; name; parent; args })

let validate_event_json j =
  Result.map (fun (_ : event) -> ()) (event_of_json j)

(* ----- Chrome trace_event (Perfetto) export -------------------------------

   One "X" (complete) event per recorded event, on a thread per track
   (pid 0 is the process, tid = track + 2 so the run track -1 lands on
   tid 1).  Causality appears as s/f flow pairs whenever the parent is
   retained and lives on a different track.  Events of category "check"
   additionally emit a "C" counter sample per numeric arg, which is how
   checker progress probes become counter tracks.  Timestamps are the sim
   clock, reported in microseconds. *)

let perfetto_json events =
  let track_label tr = if tr < 0 then "run" else "node " ^ string_of_int tr in
  let tid tr = tr + 2 in
  let by_seq = Hashtbl.create 256 in
  List.iter (fun ev -> Hashtbl.replace by_seq ev.seq ev) events;
  let tracks = Hashtbl.create 16 in
  List.iter (fun ev -> Hashtbl.replace tracks ev.track ()) events;
  let meta =
    Json.Obj
      [
        ("name", Json.Str "process_name");
        ("ph", Json.Str "M");
        ("pid", Json.Int 0);
        ("args", Json.Obj [ ("name", Json.Str "rlin") ]);
      ]
    :: (Hashtbl.fold (fun tr () acc -> tr :: acc) tracks []
       |> List.sort compare
       |> List.map (fun tr ->
              Json.Obj
                [
                  ("name", Json.Str "thread_name");
                  ("ph", Json.Str "M");
                  ("pid", Json.Int 0);
                  ("tid", Json.Int (tid tr));
                  ("args", Json.Obj [ ("name", Json.Str (track_label tr)) ]);
                ]))
  in
  let common ev rest =
    Json.Obj
      ([
         ("name", Json.Str ev.name);
         ("cat", Json.Str ev.cat);
         ("pid", Json.Int 0);
         ("tid", Json.Int (tid ev.track));
         ("ts", Json.Int ev.sim);
       ]
      @ rest)
  in
  let body =
    List.concat_map
      (fun ev ->
        let args =
          ("seq", Json.Int ev.seq) :: ("parent", Json.Int ev.parent)
          :: ev.args
        in
        let main =
          common ev
            [
              ("ph", Json.Str "X");
              ("dur", Json.Int 1);
              ("args", Json.Obj args);
            ]
        in
        let counters =
          if ev.cat <> "check" then []
          else
            List.filter_map
              (fun (k, v) ->
                match v with
                | Json.Int _ | Json.Float _ ->
                    Some
                      (Json.Obj
                         [
                           ("name", Json.Str (ev.name ^ "." ^ k));
                           ("cat", Json.Str ev.cat);
                           ("ph", Json.Str "C");
                           ("pid", Json.Int 0);
                           ("ts", Json.Int ev.sim);
                           ("args", Json.Obj [ (k, v) ]);
                         ])
                | _ -> None)
              ev.args
        in
        let flows =
          match Hashtbl.find_opt by_seq ev.parent with
          | Some p when p.track <> ev.track ->
              let flow ph e =
                Json.Obj
                  [
                    ("name", Json.Str "causal");
                    ("cat", Json.Str "flow");
                    ("ph", Json.Str ph);
                    ("id", Json.Int ev.seq);
                    ("pid", Json.Int 0);
                    ("tid", Json.Int (tid e.track));
                    ("ts", Json.Int e.sim);
                    ("bp", Json.Str "e");
                  ]
              in
              [ flow "s" p; flow "f" ev ]
          | _ -> []
        in
        (main :: counters) @ flows)
      events
  in
  Json.Obj
    [
      ("traceEvents", Json.List (meta @ body));
      ("displayTimeUnit", Json.Str "ms");
    ]

let validate_perfetto j =
  let ( let* ) = Result.bind in
  let check i e =
    Result.map_error (Printf.sprintf "event %d: %s" i)
      (let* ph = Json.field "ph" Json.to_string_opt e in
       let* _ = Json.field "name" Json.to_string_opt e in
       let* _ = Json.field "pid" Json.to_int_opt e in
       match ph with
       | "M" -> Ok ()
       | "s" | "f" -> Result.map ignore (Json.field "id" Json.to_int_opt e)
       | "X" | "B" | "E" | "C" ->
           Result.map ignore (Json.field "ts" Json.to_int_opt e)
       | other -> Error (Printf.sprintf "unknown ph %S" other))
  in
  Result.map_error (( ^ ) "perfetto: ")
    (let* evs = Json.field "traceEvents" Json.to_list_opt j in
     let rec go i = function
       | [] -> Ok (List.length evs)
       | e :: rest ->
           let* () = check i e in
           go (i + 1) rest
     in
     go 0 evs)

(* ----- DOT causal ancestry -------------------------------------------------

   The causal neighbourhood of one event: its ancestor chain up to a
   root, plus every retained event whose parent chain reaches that same
   root — i.e. the full causal cone of the operation the event belongs
   to.  Rendered as a DOT digraph, parent -> child. *)

let dot_of_ancestry events ~seq =
  let by_seq = Hashtbl.create 256 in
  List.iter (fun ev -> Hashtbl.replace by_seq ev.seq ev) events;
  let rec root s =
    match Hashtbl.find_opt by_seq s with
    | None -> s
    | Some ev -> if ev.parent < 0 then s else root ev.parent
  in
  let target_root = root seq in
  let included =
    List.filter (fun ev -> root ev.seq = target_root) events
  in
  let esc s =
    String.concat ""
      (List.map
         (function '"' -> "\\\"" | '\\' -> "\\\\" | c -> String.make 1 c)
         (List.init (String.length s) (String.get s)))
  in
  let label ev =
    let args =
      match ev.args with
      | [] -> ""
      | kv ->
          "\n"
          ^ String.concat ", "
              (List.map (fun (k, v) -> k ^ "=" ^ Json.to_string v) kv)
    in
    Printf.sprintf "#%d %s.%s @%d%s" ev.seq ev.cat ev.name ev.sim args
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "digraph causal {\n  rankdir=TB;\n  node [shape=box, fontsize=10];\n";
  List.iter
    (fun ev ->
      let l =
        String.concat "\\n" (String.split_on_char '\n' (esc (label ev)))
      in
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%s\"%s];\n" ev.seq l
           (if ev.seq = seq then ", style=bold, color=red" else "")))
    included;
  List.iter
    (fun ev ->
      if ev.parent >= 0 && Hashtbl.mem by_seq ev.parent then
        Buffer.add_string buf
          (Printf.sprintf "  n%d -> n%d;\n" ev.parent ev.seq))
    included;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
