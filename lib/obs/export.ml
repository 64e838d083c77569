let write_line oc v =
  output_string oc (Json.to_string v);
  output_char oc '\n'

(* Streaming round-trip verification: render, re-parse the rendered line,
   and compare structurally — per record, so a tail/pipe consumer
   ([rlin trace --follow]) verifies without buffering the stream, and
   [--out] no longer re-reads the whole file afterwards. *)
let write_line_verified oc v =
  let line = Json.to_string v in
  match Json.of_string line with
  | Ok v' when Json.equal v v' ->
      output_string oc line;
      output_char oc '\n';
      Ok ()
  | Ok _ -> Error (Printf.sprintf "round-trip mismatch: %s" line)
  | Error e -> Error (Printf.sprintf "round-trip parse failure: %s: %s" e line)

let write_lines oc vs = List.iter (write_line oc) vs

let to_file path vs =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write_lines oc vs)

let lines_to_string vs =
  String.concat "" (List.map (fun v -> Json.to_string v ^ "\n") vs)

let parse_lines s =
  let lines = String.split_on_char '\n' s in
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        if String.trim line = "" then go (i + 1) acc rest
        else (
          match Json.of_string line with
          | Ok v -> go (i + 1) (v :: acc) rest
          | Error e -> Error (Printf.sprintf "line %d: %s" i e))
  in
  go 1 [] lines

let parse_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> parse_lines s
  | exception Sys_error e -> Error e

let summary_json (s : Metrics.summary) =
  Json.Obj
    [
      ("count", Json.Int s.count);
      ("sum", Json.Float s.sum);
      ("min", Json.Float s.min);
      ("max", Json.Float s.max);
      ("mean", Json.Float s.mean);
      ("p50", Json.Float s.p50);
      ("p90", Json.Float s.p90);
      ("p95", Json.Float s.p95);
      ("p99", Json.Float s.p99);
    ]

let metrics_json ?label (s : Metrics.snapshot) =
  let base = [ ("kind", Json.Str "metrics") ] in
  let label =
    match label with Some l -> [ ("label", Json.Str l) ] | None -> []
  in
  Json.Obj
    (base @ label
    @ [
        ( "counters",
          Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) s.counters) );
        ( "gauges",
          Json.Obj (List.map (fun (n, v) -> (n, Json.Float v)) s.gauges) );
        ( "histograms",
          Json.Obj
            (List.map (fun (n, h) -> (n, summary_json h)) s.histograms) );
      ])

let report_json ~id ~claim ~expected ~measured ~pass ~metrics =
  Json.Obj
    [
      ("kind", Json.Str "report");
      ("id", Json.Str id);
      ("claim", Json.Str claim);
      ("expected", Json.Str expected);
      ("measured", Json.Str measured);
      ("pass", Json.Bool pass);
      ( "metrics",
        Json.Obj (List.map (fun (n, v) -> (n, Json.Float v)) metrics) );
    ]
