module V = History.Value
module Op = History.Op
module Hist = History.Hist

(* Candidate write for a read's value: the latest write (in writer order)
   carrying that value that does not contradict real-time order with the
   read.  With the distinct write values used throughout the experiments
   the candidate is unique. *)
let candidate_write writes (r : Op.t) v =
  let n = Array.length writes in
  let ok i =
    let w = writes.(i) in
    V.equal (Op.write_value w) v
    && (not (Op.precedes r w))
    && (* every later write must be allowed after r *)
    (let later_ok = ref true in
     for j = i + 1 to n - 1 do
       if Op.precedes writes.(j) r then later_ok := false
     done;
     !later_ok)
  in
  let rec scan i = if i < 0 then None else if ok i then Some i else scan (i - 1) in
  scan (n - 1)

let linearize ?(metrics = Obs.Metrics.create ()) ~init h =
  Obs.Metrics.incr_h (Obs.Metrics.counter_h metrics "fstar.linearizations");
  match Hist.objects h with
  | [] -> Some []
  | _ :: _ :: _ -> invalid_arg "Fstar.linearize: multi-object history"
  | [ _obj ] -> (
      let writes_l = Hist.writes h in
      (* SWMR sanity: one writer, sequential *)
      match writes_l with
      | [] ->
          (* only reads; all must return init *)
          let reads = List.filter Op.is_complete (Hist.reads h) in
          if
            List.for_all
              (fun (r : Op.t) ->
                match r.result with Some v -> V.equal v init | None -> false)
              reads
          then
            Some
              (List.sort (fun (a : Op.t) b -> Int.compare a.invoked b.invoked) reads)
          else None
      | w0 :: rest ->
          if List.exists (fun (w : Op.t) -> w.proc <> w0.proc) rest then
            invalid_arg "Fstar.linearize: not single-writer";
          let writes =
            Array.of_list
              (List.sort (fun (a : Op.t) b -> Int.compare a.invoked b.invoked)
                 writes_l)
          in
          let n = Array.length writes in
          (* group completed reads: index -1 = initial value *)
          let groups = Array.make (n + 1) [] in
          let assign_ok = ref true in
          List.iter
            (fun (r : Op.t) ->
              if Op.is_complete r then
                match r.result with
                | None -> assign_ok := false
                | Some v -> (
                    match candidate_write writes r v with
                    | Some i -> groups.(i + 1) <- r :: groups.(i + 1)
                    | None ->
                        if
                          V.equal v init
                          && not (List.exists (fun (w : Op.t) -> Op.precedes w r)
                                    (Array.to_list writes))
                        then groups.(0) <- r :: groups.(0)
                        else assign_ok := false))
            (Hist.reads h);
          if not !assign_ok then None
          else begin
            (* include the pending write only if some read returned its
               value (the f* trimming step of Lemma 67) *)
            let included i =
              Op.is_complete writes.(i) || groups.(i + 1) <> []
            in
            (* a pending write is last in writer order; if it is excluded we
               must not have any included op after it — automatic since it
               is last and its group is empty *)
            let by_start l =
              List.sort (fun (a : Op.t) b -> Int.compare a.invoked b.invoked) l
            in
            let out = ref (by_start groups.(0)) in
            for i = 0 to n - 1 do
              if included i then out := !out @ (writes.(i) :: by_start groups.(i + 1))
            done;
            let s = !out in
            if Hist.Seq.is_linearization_of ~init h s then Some s else None
          end)

let write_ids s = List.filter Op.is_write s |> List.map (fun (o : Op.t) -> o.id)

let rec is_int_prefix p q =
  match (p, q) with
  | [], _ -> true
  | _, [] -> false
  | x :: p', y :: q' -> x = y && is_int_prefix p' q'

let wsl_function ?(metrics = Obs.Metrics.create ()) ~init h =
  let prefs = Hist.prefixes h in
  Obs.Metrics.incr_h ~by:(List.length prefs)
    (Obs.Metrics.counter_h metrics "fstar.prefixes");
  let rec go acc prev = function
    | [] -> Ok (List.rev acc)
    | g :: rest -> (
        match linearize ~metrics ~init g with
        | None ->
            Error
              (Printf.sprintf "prefix with %d events is not linearizable"
                 (Hist.length g))
        | Some s ->
            let w = write_ids s in
            if is_int_prefix prev w then go (w :: acc) w rest
            else
              Error
                (Printf.sprintf
                   "write order of the %d-event prefix does not extend its \
                    predecessor"
                   (Hist.length g)))
  in
  go [] [] prefs
