module J = Obs.Json

(* Checkpoint/resume for [rlin serve].

   A checkpoint is taken only at *globally* quiescent points (no object
   has an open segment), so the whole serving state reduces to: the
   input cursor (lines consumed), the running counters, the time
   high-water mark, and — per object — the next segment's index and
   entry set.  Re-feeding the stream from [cursor] through a restored
   engine re-emits exactly the verdicts the uninterrupted run would have
   emitted from that point, because everything downstream is a
   deterministic function of (entry sets, remaining lines).

   One JSON record, written atomically (tmp + rename) so a kill during
   the write leaves the previous checkpoint intact. *)

let schema = 1

type obj_state = { obj : string; index : int; entry : Segmenter.entry }

type t = {
  cursor : int; (* input lines consumed, including quarantined ones *)
  last_time : int; (* monotonicity high-water mark *)
  events : int;
  annotations : int;
  quarantined : int;
  shed_events : int;
  ok : int;
  fail : int;
  unknown : int;
  objects : obj_state list; (* sorted by object name *)
}

let verdicts t = t.ok + t.fail + t.unknown

let obj_json o =
  J.Obj
    [
      ("obj", J.Str o.obj);
      ("segment", J.Int o.index);
      ("exact", J.Bool o.entry.Segmenter.exact);
      ("overflow", J.Bool o.entry.Segmenter.overflow);
      ( "values",
        J.List (List.map Ingest.value_json o.entry.Segmenter.values) );
    ]

let ( let* ) = Result.bind

let obj_of_json j =
  let* obj = J.field "obj" J.to_string_opt j in
  Result.map_error (Printf.sprintf "object %s: %s" obj)
    (let* index = J.field "segment" J.to_int_opt j in
     let* exact = J.field "exact" J.to_bool_opt j in
     let* overflow = J.field "overflow" J.to_bool_opt j in
     let* values =
       J.field "values"
         (J.list_of (fun v -> Result.to_option (Ingest.value_of_json v)))
         j
     in
     if index < 0 then Error (Printf.sprintf "negative segment %d" index)
     else Ok { obj; index; entry = { Segmenter.exact; values; overflow } })

let json t =
  J.Obj
    [
      ("kind", J.Str "serve_checkpoint");
      ("schema", J.Int schema);
      ("cursor", J.Int t.cursor);
      ("last_time", J.Int t.last_time);
      ("events", J.Int t.events);
      ("annotations", J.Int t.annotations);
      ("quarantined", J.Int t.quarantined);
      ("shed_events", J.Int t.shed_events);
      ("ok", J.Int t.ok);
      ("fail", J.Int t.fail);
      ("unknown", J.Int t.unknown);
      ("objects", J.List (List.map obj_json t.objects));
    ]

let of_json j =
  (* counts are never negative; [last_time] is -1 in a fresh engine's *)
  let at_least least k =
    let* v = J.field k J.to_int_opt j in
    if v >= least then Ok v
    else Error (Printf.sprintf "%S is %d, below %d" k v least)
  in
  let count = at_least 0 in
  let rec repeated = function
    | a :: (b :: _ as rest) ->
        if String.equal a b then Some a else repeated rest
    | _ -> None
  in
  Result.map_error (( ^ ) "checkpoint: ")
    (let* kind = J.field "kind" J.to_string_opt j in
     let* () =
       if String.equal kind "serve_checkpoint" then Ok ()
       else Error (Printf.sprintf "not a checkpoint record (kind %S)" kind)
     in
     let* version = J.field "schema" J.to_int_opt j in
     let* () =
       if version = schema then Ok ()
       else Error (Printf.sprintf "unsupported schema %d" version)
     in
     let* cursor = count "cursor" in
     let* last_time = at_least (-1) "last_time" in
     let* events = count "events" in
     let* annotations = count "annotations" in
     let* quarantined = count "quarantined" in
     let* shed_events = count "shed_events" in
     let* ok = count "ok" in
     let* fail = count "fail" in
     let* unknown = count "unknown" in
     (* each object's own error (its name, the field it lacks, a negative
        segment) reaches the message, which [J.list_of] could not carry *)
     let* objects =
       Result.bind (J.field "objects" J.to_list_opt j) (fun os ->
           List.fold_left
             (fun acc o ->
               let* acc = acc in
               let* o = obj_of_json o in
               Ok (o :: acc))
             (Ok []) os)
     in
     match
       repeated (List.sort String.compare (List.map (fun o -> o.obj) objects))
     with
     | Some o -> Error (Printf.sprintf "object %s repeated" o)
     | None ->
         Ok
           {
             cursor;
             last_time;
             events;
             annotations;
             quarantined;
             shed_events;
             ok;
             fail;
             unknown;
             objects = List.rev objects;
           })

(* Write-then-rename alone survives a process kill, but not a machine
   crash: the rename can hit disk before the data does, publishing an
   empty or torn checkpoint.  Flush and fsync the temp file before the
   rename, then best-effort fsync the directory so the rename itself is
   durable (some filesystems don't allow directory fds — skip then). *)
let atomic_replace ~path ~write =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      write oc;
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc));
  Sys.rename tmp path;
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

let save path t =
  atomic_replace ~path ~write:(fun oc -> Obs.Export.write_line oc (json t))

let load path =
  match Obs.Export.parse_file path with
  | Error e -> Error e
  | Ok [ j ] -> of_json j
  | Ok records ->
      Error
        (Printf.sprintf "checkpoint file holds %d records, expected 1"
           (List.length records))

(* Rewrite a verdict log down to its first [keep] complete lines — the
   resume-time reconciliation that discards both verdicts emitted after
   the checkpoint and a partial final line a kill left behind. *)
let truncate_jsonl ~path ~keep =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | s ->
      let lines = String.split_on_char '\n' s in
      (* everything before the last '\n' is a complete line; the final
         element of the split is a fragment (or empty) *)
      let rec complete acc = function
        | [] | [ _ ] -> List.rev acc
        | l :: rest -> complete (l :: acc) rest
      in
      let complete_lines = complete [] lines in
      if List.length complete_lines < keep then
        Error
          (Printf.sprintf
             "verdict log %s has %d complete lines, checkpoint expects %d"
             path
             (List.length complete_lines)
             keep)
      else begin
        let kept = List.filteri (fun i _ -> i < keep) complete_lines in
        atomic_replace ~path ~write:(fun oc ->
            List.iter
              (fun l ->
                output_string oc l;
                output_char oc '\n')
              kept);
        Ok ()
      end
