let label (o : Op.t) =
  match o.kind with
  | Op.Write v -> Format.asprintf "w(%a)" Value.pp v
  | Op.Read -> (
      match o.result with
      | Some v -> Format.asprintf "r->%a" Value.pp v
      | None -> "r")

(* pending ops extend to the right margin *)
let render h =
  match Hist.ops h with
  | [] -> "(empty history)\n"
  | ops ->
      let procs =
        List.sort_uniq Int.compare (List.map (fun (o : Op.t) -> o.proc) ops)
      in
      let tmin =
        List.fold_left (fun a (o : Op.t) -> min a o.invoked) max_int ops
      in
      let tmax =
        List.fold_left
          (fun a (o : Op.t) ->
            match o.responded with Some r -> max a r | None -> a)
          (tmin + 1) ops
      in
      let tmax = max tmax (tmin + 1) in
      let cols = 100 in
      let scale t =
        (t - tmin) * (cols - 1) / (max 1 (tmax - tmin))
      in
      let buf = Buffer.create 1024 in
      List.iter
        (fun p ->
          let line = Bytes.make (cols + 14) ' ' in
          let prefix = Printf.sprintf "p%-3d " p in
          Bytes.blit_string prefix 0 line 0 (String.length prefix);
          let base = String.length prefix in
          List.iter
            (fun (o : Op.t) ->
              if o.proc = p then begin
                let a = base + scale o.invoked in
                let b =
                  match o.responded with
                  | Some r -> base + scale r
                  | None -> base + cols - 1
                in
                let b = max b (a + 1) in
                if a < Bytes.length line then Bytes.set line a '|';
                for i = a + 1 to min (b - 1) (Bytes.length line - 1) do
                  Bytes.set line i '-'
                done;
                if b < Bytes.length line then
                  Bytes.set line b
                    (match o.responded with Some _ -> '|' | None -> '>');
                (* overlay the label centred in the interval *)
                let lbl = label o in
                let lbl_len = String.length lbl in
                let mid = (a + b) / 2 - (lbl_len / 2) in
                let mid = max (a + 1) mid in
                String.iteri
                  (fun i c ->
                    let pos = mid + i in
                    if pos > a && pos < b && pos < Bytes.length line then
                      Bytes.set line pos c)
                  lbl
              end)
            ops;
          Buffer.add_string buf (Bytes.to_string line);
          Buffer.add_char buf '\n')
        procs;
      Buffer.contents buf
