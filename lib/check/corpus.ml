module Config = Msgpass.Runs.Config

type entry = {
  config : Config.t;
  violation : Monitor.violation;
  original : Config.t option;
  shrink_attempts : int;
  postmortem : Obs.Json.t list;
}

let entry_json e =
  Obs.Json.Obj
    ([
       ("kind", Obs.Json.Str "chaos_repro");
       ("config", Config.json e.config);
       ("violation", Monitor.violation_json e.violation);
       ( "original",
         match e.original with
         | Some c -> Config.json c
         | None -> Obs.Json.Null );
       ("shrink_attempts", Obs.Json.Int e.shrink_attempts);
     ]
    (* flight-recorder post-mortem only when recorded: old corpora and
       recorder-off runs serialize exactly as before *)
    @
    match e.postmortem with
    | [] -> []
    | evs -> [ ("postmortem", Obs.Json.List evs) ])

let entry_of_json j =
  let module J = Obs.Json in
  let ( let* ) = Result.bind in
  (* the post-mortem events must be well-formed trace records *)
  let event ev =
    Option.map (fun () -> ev)
      (Result.to_option (Obs.Tracer.validate_event_json ev))
  in
  (* [config] and [original] share a decoder: say which one refused *)
  let nested k dec v = Result.map_error (Printf.sprintf "%S: %s" k) (dec v) in
  Result.map_error (( ^ ) "Corpus.entry_of_json: ")
    (let* () =
       J.field "kind"
         (function J.Str "chaos_repro" -> Some () | _ -> None)
         j
     in
     let* config =
       Result.bind (J.field "config" Option.some j)
         (nested "config" Config.of_json)
     in
     let* violation =
       Result.bind (J.field "violation" Option.some j)
         (nested "violation" Monitor.violation_of_json)
     in
     let* original = J.field_or "original" None (fun c -> Some (Some c)) j in
     let* original =
       match original with
       | None -> Ok None
       | Some c -> Result.map Option.some (nested "original" Config.of_json c)
     in
     let* shrink_attempts = J.field_or "shrink_attempts" 0 J.to_int_opt j in
     let* postmortem = J.field_or "postmortem" [] (J.list_of event) j in
     Ok { config; violation; original; shrink_attempts; postmortem })

let load_file path =
  let ( let* ) = Result.bind in
  let* values = Obs.Export.parse_file path in
  List.fold_left
    (fun acc v ->
      let* entries = acc in
      let* e =
        Result.map_error (fun m -> path ^ ": " ^ m) (entry_of_json v)
      in
      Ok (entries @ [ e ]))
    (Ok []) values

let load path =
  if Sys.file_exists path && Sys.is_directory path then
    let files =
      Sys.readdir path |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
      |> List.sort String.compare
      |> List.map (Filename.concat path)
    in
    List.fold_left
      (fun acc f ->
        Result.bind acc (fun entries ->
            Result.map (fun es -> entries @ es) (load_file f)))
      (Ok []) files
  else load_file path

let save path entries = Obs.Export.to_file path (List.map entry_json entries)

let append path entry =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Obs.Export.write_line oc (entry_json entry))

type replay_outcome = Reproduced | Changed of Monitor.violation | Fixed

(* "Byte-for-byte": compare the serialized violations, which is what the
   JSONL corpus stores and what CI diffs. *)
let replay entry =
  match Monitor.run_config entry.config with
  | None -> Fixed
  | Some v ->
      if
        String.equal
          (Obs.Json.to_string (Monitor.violation_json v))
          (Obs.Json.to_string (Monitor.violation_json entry.violation))
      then Reproduced
      else Changed v
