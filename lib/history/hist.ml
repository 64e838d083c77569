type t = { evs : Event.timed list (* increasing time *) }

let empty = { evs = [] }
let events h = h.evs
let length h = List.length h.evs

let max_time h =
  match List.rev h.evs with [] -> -1 | { Event.time; _ } :: _ -> time

(* Validation -------------------------------------------------------------- *)

exception Malformed of string

let validate evs =
  let seen_ids = Hashtbl.create 16 in
  (* op_id -> [`Open proc] until its response, then [`Closed] *)
  let pending_by_proc = Hashtbl.create 16 in
  (* procs with an op pending: an [`Open] op's process is always here,
     since a second invoke while it is pending is rejected *)
  let last_time = ref min_int in
  List.iter
    (fun { Event.time; event } ->
      if time <= !last_time then
        raise (Malformed "event times must be strictly increasing");
      last_time := time;
      match event with
      | Event.Invoke { op_id; proc; _ } ->
          if Hashtbl.mem seen_ids op_id then
            raise (Malformed "duplicate op id");
          Hashtbl.add seen_ids op_id (`Open proc);
          if Hashtbl.mem pending_by_proc proc then
            raise
              (Malformed
                 (Printf.sprintf
                    "process %d invokes while an operation is pending" proc));
          Hashtbl.add pending_by_proc proc ()
      | Event.Respond { op_id; _ } -> (
          match Hashtbl.find_opt seen_ids op_id with
          | None -> raise (Malformed "response without invocation")
          | Some `Closed -> raise (Malformed "duplicate response")
          | Some (`Open proc) ->
              Hashtbl.replace seen_ids op_id `Closed;
              Hashtbl.remove pending_by_proc proc))
    evs

let of_events evs =
  match validate evs with
  | () -> Ok { evs }
  | exception Malformed msg -> Error msg

let of_events_exn evs =
  match of_events evs with
  | Ok h -> h
  | Error msg -> invalid_arg ("Hist.of_events_exn: " ^ msg)

let of_ops ops =
  let evs =
    List.concat_map
      (fun (o : Op.t) ->
        let inv =
          {
            Event.time = o.invoked;
            event =
              Event.Invoke
                { op_id = o.id; proc = o.proc; obj = o.obj; kind = o.kind };
          }
        in
        match o.responded with
        | None -> [ inv ]
        | Some r ->
            [
              inv;
              {
                Event.time = r;
                event = Event.Respond { op_id = o.id; result = o.result };
              };
            ])
      ops
  in
  let evs =
    List.sort (fun a b -> Int.compare a.Event.time b.Event.time) evs
  in
  of_events_exn evs

(* Derived views ----------------------------------------------------------- *)

let ops h =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun { Event.time; event } ->
      match event with
      | Event.Invoke { op_id; proc; obj; kind } ->
          Hashtbl.add tbl op_id
            (Op.make ~id:op_id ~proc ~obj ~kind ~invoked:time ());
          order := op_id :: !order
      | Event.Respond { op_id; result } ->
          let o = Hashtbl.find tbl op_id in
          Hashtbl.replace tbl op_id
            { o with responded = Some time; result })
    h.evs;
  List.rev_map (fun id -> Hashtbl.find tbl id) !order

let complete_ops h = List.filter Op.is_complete (ops h)
let pending_ops h = List.filter Op.is_pending (ops h)

let objects h =
  List.fold_left
    (fun acc { Event.event; _ } ->
      match event with
      | Event.Invoke { obj; _ } when not (List.mem obj acc) -> obj :: acc
      | _ -> acc)
    [] h.evs
  |> List.rev

let project h ~obj =
  let keep = Hashtbl.create 16 in
  let evs =
    List.filter
      (fun { Event.event; _ } ->
        match event with
        | Event.Invoke { op_id; obj = o; _ } ->
            let k = String.equal o obj in
            if k then Hashtbl.add keep op_id ();
            k
        | Event.Respond { op_id; _ } -> Hashtbl.mem keep op_id)
      h.evs
  in
  { evs }

let restrict_procs h ~procs =
  let keep = Hashtbl.create 16 in
  let evs =
    List.filter
      (fun { Event.event; _ } ->
        match event with
        | Event.Invoke { op_id; proc; _ } ->
            let k = List.mem proc procs in
            if k then Hashtbl.add keep op_id ();
            k
        | Event.Respond { op_id; _ } -> Hashtbl.mem keep op_id)
      h.evs
  in
  { evs }

let prefix h k =
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: xs -> x :: take (k - 1) xs
  in
  { evs = take k h.evs }

(* events are in time order, so those up to [t] are a prefix *)
let prefix_upto_time h t =
  { evs = List.filter (fun (e : Event.timed) -> e.time <= t) h.evs }

let prefixes h =
  let n = length h in
  List.init (n + 1) (fun k -> prefix h k)

let is_prefix g ~of_ =
  let rec go gs hs =
    match (gs, hs) with
    | [], _ -> true
    | _, [] -> false
    | ge :: gs', he :: hs' -> Event.equal_timed ge he && go gs' hs'
  in
  go g.evs of_.evs

let append h ev =
  match of_events (h.evs @ [ ev ]) with
  | Ok h' -> h'
  | Error msg -> invalid_arg ("Hist.append: " ^ msg)

let writes h = List.filter Op.is_write (ops h)
let reads h = List.filter Op.is_read (ops h)

let concurrent_pairs h =
  let os = Array.of_list (ops h) in
  let n = Array.length os in
  let acc = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Op.concurrent os.(i) os.(j) then acc := (os.(i), os.(j)) :: !acc
    done
  done;
  List.rev !acc

let pp fmt h =
  Format.fprintf fmt "@[<v>%a@]"
    (Format.pp_print_list Event.pp_timed)
    h.evs

(* Sequential histories ----------------------------------------------------- *)

module Seq = struct
  type seq = Op.t list

  let first_illegal_read ~init s =
    let rec go current = function
      | [] -> None
      | (o : Op.t) :: rest -> (
          match o.kind with
          | Op.Write v -> go v rest
          | Op.Read -> (
              match o.result with
              | Some r when Value.equal r current -> go current rest
              | _ -> Some o))
    in
    go init s

  let legal_register ~init s = Option.is_none (first_illegal_read ~init s)

  let respects_precedence h s =
    let pos = Hashtbl.create 16 in
    List.iteri (fun i (o : Op.t) -> Hashtbl.replace pos o.id i) s;
    let all = ops h in
    List.for_all
      (fun (a : Op.t) ->
        List.for_all
          (fun (b : Op.t) ->
            if Op.precedes a b then
              match (Hashtbl.find_opt pos a.id, Hashtbl.find_opt pos b.id) with
              | Some ia, Some ib -> ia < ib
              | _ ->
                  (* if either is absent from the sequence the property is
                     vacuous for this pair (only complete ops are required
                     to be present, and [covers_complete] checks that) *)
                  true
            else true)
          all)
      all

  let covers_complete h s =
    let ids = List.map (fun (o : Op.t) -> o.id) s in
    List.for_all
      (fun (o : Op.t) -> List.mem o.id ids)
      (complete_ops h)

  let is_linearization_of ~init h s =
    (* every op in s must belong to h *)
    let h_ids = List.map (fun (o : Op.t) -> o.id) (ops h) in
    List.for_all (fun (o : Op.t) -> List.mem o.id h_ids) s
    && covers_complete h s
    && respects_precedence h s
    && legal_register ~init s

  let write_subsequence s = List.filter Op.is_write s

  let is_op_prefix p ~of_ =
    let rec go ps qs =
      match (ps, qs) with
      | [], _ -> true
      | _, [] -> false
      | (a : Op.t) :: ps', (b : Op.t) :: qs' -> a.id = b.id && go ps' qs'
    in
    go p of_
end
