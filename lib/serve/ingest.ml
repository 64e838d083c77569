module J = Obs.Json
module V = History.Value

(* Stream ingestion for [rlin serve]: a chunk-to-line reader that
   tolerates mid-write (partial) tails, plus a strict-but-total parser
   from the [Simkit.Trace.entry_json] JSONL schema into typed events.
   Every malformed shape becomes an [Error] for the quarantine — parsing
   never raises. *)

(* ----- partial-line-tolerant reader ------------------------------------- *)

module Reader = struct
  (* Bytes arrive in arbitrary chunks (pipe reads, socket frames, a tail
     of a file another process is still writing).  [feed] returns only
     the complete ('\n'-terminated) lines; a trailing fragment is
     buffered and completed by the next chunk.  [take_rest] surrenders
     the fragment at end-of-stream (a final line the writer never
     terminated). *)
  type t = { buf : Buffer.t }

  let create () = { buf = Buffer.create 256 }
  let pending t = if Buffer.length t.buf = 0 then None else Some (Buffer.contents t.buf)

  let feed t chunk =
    match String.index_opt chunk '\n' with
    | None ->
        Buffer.add_string t.buf chunk;
        []
    | Some _ ->
        let joined = Buffer.contents t.buf ^ chunk in
        Buffer.clear t.buf;
        let parts = String.split_on_char '\n' joined in
        (* the last part is the (possibly empty) unterminated tail *)
        let rec split_last acc = function
          | [] -> (List.rev acc, "")
          | [ last ] -> (List.rev acc, last)
          | x :: rest -> split_last (x :: acc) rest
        in
        let lines, tail = split_last [] parts in
        Buffer.add_string t.buf tail;
        lines

  let take_rest t =
    if Buffer.length t.buf = 0 then None
    else begin
      let s = Buffer.contents t.buf in
      Buffer.clear t.buf;
      Some s
    end
end

(* ----- values ----------------------------------------------------------- *)

(* Inverse of [Simkit.Trace.value_json]. *)
let value_of_json j =
  let int k = Option.bind (J.member k j) J.to_int_opt in
  match Option.bind (J.member "type" j) J.to_string_opt with
  | Some "bot" -> Ok V.Bot
  | Some "int" -> (
      match int "v" with
      | Some n -> Ok (V.Int n)
      | None -> Error "int value: missing \"v\"")
  | Some "pair" -> (
      match (int "a", int "b") with
      | Some a, Some b -> Ok (V.Pair (a, b))
      | _ -> Error "pair value: missing \"a\" or \"b\"")
  | Some "vec" -> (
      match (int "v", Option.bind (J.member "ts" j) J.to_list_opt) with
      | Some v, Some entries -> (
          let entry = function
            | J.Int k when k >= 0 -> Some (Clocks.Vector.Fin k)
            | J.Str "inf" -> Some Clocks.Vector.Inf
            | _ -> None
          in
          match
            List.fold_right
              (fun e acc ->
                match (entry e, acc) with
                | Some e, Some acc -> Some (e :: acc)
                | _ -> None)
              entries (Some [])
          with
          | Some [] | None -> Error "vec value: bad \"ts\" entries"
          | Some es -> Ok (V.VecStamped (v, Clocks.Vector.of_list es)))
      | _ -> Error "vec value: missing \"v\" or \"ts\"")
  | Some "lam" -> (
      match (int "v", int "sq", int "pid") with
      | Some v, Some sq, Some pid when sq >= 0 && pid >= 1 ->
          Ok (V.LamStamped (v, Clocks.Lamport.make ~sq ~pid))
      | Some _, Some _, Some _ -> Error "lam value: sq/pid out of range"
      | _ -> Error "lam value: missing \"v\", \"sq\" or \"pid\"")
  | Some ty -> Error (Printf.sprintf "unknown value type %S" ty)
  | None -> Error "value: missing \"type\""

let value_json = Simkit.Trace.value_json

(* ----- events ----------------------------------------------------------- *)

type event = History.Event.t =
  | Invoke of { op_id : int; proc : int; obj : string; kind : History.Op.kind }
  | Respond of { op_id : int; result : V.t option }

type parsed =
  | Event of { time : int; ev : event }
  | Annotation of string  (** a known non-history record kind *)

(* Trace annotations ride alongside history events in [rlin trace --out]
   streams; serve counts and skips them (they carry linearization points,
   coin flips and timestamps, not operations). *)
let annotation_kinds = [ "lin"; "coin"; "valwrite"; "ts"; "readts"; "note" ]

let parse_json j =
  let int k = Option.bind (J.member k j) J.to_int_opt in
  let str k = Option.bind (J.member k j) J.to_string_opt in
  match str "kind" with
  | None -> Error "missing \"kind\""
  | Some "invoke" -> (
      match (int "t", int "op", int "proc", str "obj", str "opkind") with
      | Some time, Some op_id, Some proc, Some obj, Some "read" ->
          Ok
            (Event
               {
                 time;
                 ev = Invoke { op_id; proc; obj; kind = History.Op.Read };
               })
      | Some time, Some op_id, Some proc, Some obj, Some "write" -> (
          match J.member "value" j with
          | None -> Error "invoke: write without \"value\""
          | Some vj -> (
              match value_of_json vj with
              | Ok v ->
                  Ok
                    (Event
                       {
                         time;
                         ev =
                           Invoke
                             { op_id; proc; obj; kind = History.Op.Write v };
                       })
              | Error e -> Error ("invoke: " ^ e)))
      | _, _, _, _, Some k ->
          Error (Printf.sprintf "invoke: bad \"opkind\" %S or missing field" k)
      | _ -> Error "invoke: missing \"t\", \"op\", \"proc\", \"obj\" or \"opkind\"")
  | Some "respond" -> (
      match (int "t", int "op", J.member "result" j) with
      | Some time, Some op_id, Some J.Null ->
          Ok (Event { time; ev = Respond { op_id; result = None } })
      | Some time, Some op_id, Some vj -> (
          match value_of_json vj with
          | Ok v -> Ok (Event { time; ev = Respond { op_id; result = Some v } })
          | Error e -> Error ("respond: " ^ e))
      | _ -> Error "respond: missing \"t\", \"op\" or \"result\"")
  | Some k when List.mem k annotation_kinds -> Ok (Annotation k)
  | Some k -> Error (Printf.sprintf "unknown record kind %S" k)

let parse_line line =
  match J.of_string line with
  | Error e -> Error ("bad JSON: " ^ e)
  | Ok j -> parse_json j

(* ----- rendering (for tests and the experiment battery) ------------------ *)

let event_json ~time event =
  Simkit.Trace.entry_json (Simkit.Trace.Ev { History.Event.time; event })
