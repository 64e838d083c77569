module V = History.Value
module Op = History.Op
module Vec = Clocks.Vector
module Trace = Simkit.Trace

type info = {
  op : Op.t;
  snapshots : (int * Vec.t) list; (* ascending time *)
  val_write : int option; (* time of the line-8 write, if reached *)
}

(* Collect, from the trace clipped at [time], everything Algorithm 3 needs. *)
let gather tr ~obj ~time:cutoff =
  let entries =
    List.filter (fun e -> Trace.entry_time e <= cutoff) (Trace.entries tr)
  in
  (* history events -> ops (clipped: late responses dropped) *)
  let ops_tbl : (int, Op.t) Hashtbl.t = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun e ->
      match e with
      | Trace.Ev { History.Event.time; event } -> (
          match event with
          | History.Event.Invoke { op_id; proc; obj = o; kind }
            when String.equal o obj ->
              Hashtbl.replace ops_tbl op_id
                (Op.make ~id:op_id ~proc ~obj ~kind ~invoked:time ());
              order := op_id :: !order
          | History.Event.Respond { op_id; result } -> (
              match Hashtbl.find_opt ops_tbl op_id with
              | Some o ->
                  Hashtbl.replace ops_tbl op_id
                    { o with responded = Some time; result }
              | None -> ())
          | _ -> ())
      | _ -> ())
    entries;
  let snapshots : (int, (int * Vec.t) list) Hashtbl.t = Hashtbl.create 32 in
  let val_writes = ref [] in
  let read_tss : (int, Vec.t) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun e ->
      match e with
      | Trace.TsSnapshot { time; op_id; ts; _ }
        when Hashtbl.mem ops_tbl op_id ->
          (* accumulate reversed (cons, not append) — reversed once below *)
          let prev =
            Option.value ~default:[] (Hashtbl.find_opt snapshots op_id)
          in
          Hashtbl.replace snapshots op_id ((time, ts) :: prev)
      | Trace.ValWrite { time; op_id; _ } when Hashtbl.mem ops_tbl op_id ->
          val_writes := (time, op_id) :: !val_writes
      | Trace.ReadTs { op_id; ts; _ } when Hashtbl.mem ops_tbl op_id ->
          Hashtbl.replace read_tss op_id ts
      | _ -> ())
    entries;
  let infos =
    List.rev !order
    |> List.map (fun id ->
           let op = Hashtbl.find ops_tbl id in
           ( id,
             {
               op;
               snapshots =
                 List.rev
                   (Option.value ~default:[] (Hashtbl.find_opt snapshots id));
               val_write =
                 List.find_map
                   (fun (t, oid) -> if oid = id then Some t else None)
                   !val_writes;
             } ))
  in
  (infos, List.rev !val_writes, read_tss)

let dim_of infos =
  List.find_map
    (fun (_, i) ->
      match i.snapshots with (_, ts) :: _ -> Some (Vec.dim ts) | [] -> None)
    infos

(* The writer's new_ts at time [t]: the last snapshot at or before [t];
   [[∞,…,∞]] if none was recorded yet. *)
let ts_at info ~t ~n =
  let rec last acc = function
    | (time, ts) :: rest when time <= t -> last (Some ts) rest
    | _ -> acc
  in
  match last None info.snapshots with Some ts -> ts | None -> Vec.all_inf n

(* The complete timestamp a write published at line 8 (if it got there). *)
let final_ts info ~n =
  match info.val_write with
  | None -> None
  | Some t -> Some (ts_at info ~t ~n)

let linearize_upto ?(metrics = Obs.Metrics.create ()) tr ~obj ~time =
  let linearizations = Obs.Metrics.counter_h metrics "alg3.linearizations" in
  let ops_placed = Obs.Metrics.counter_h metrics "alg3.ops_placed" in
  Obs.Metrics.incr_h linearizations;
  let infos, val_writes, read_tss = gather tr ~obj ~time in
  Obs.Metrics.incr_h ~by:(List.length infos) ops_placed;
  match dim_of infos with
  | None ->
      (* no write ever took a snapshot: history has no writes past line 1;
         only reads of the initial value can exist *)
      infos
      |> List.filter_map (fun (_, i) ->
             if Op.is_read i.op && Op.is_complete i.op then Some i.op else None)
      |> List.sort (fun (a : Op.t) b -> Int.compare a.invoked b.invoked)
  | Some n ->
      let find_info id = List.assoc id infos in
      (* --- lines 1–19: linearize the writes ----------------------------- *)
      let ws = ref [] (* reverse order *) in
      let in_ws id = List.mem id !ws in
      List.iter
        (fun (t_i, wi) ->
          if not (in_ws wi) then begin
            let wi_info = find_info wi in
            let ts_wi = ts_at wi_info ~t:t_i ~n in
            (* C_i: writes not yet linearized and active at t_i *)
            let c_i =
              List.filter
                (fun (id, info) ->
                  Op.is_write info.op
                  && (not (in_ws id))
                  && Op.active_at info.op t_i)
                infos
            in
            (* B_i: those whose (possibly incomplete) timestamp at t_i is
               <= ts_{w_i} *)
            let b_i =
              List.filter_map
                (fun (id, info) ->
                  let ts = ts_at info ~t:t_i ~n in
                  if Vec.le ts ts_wi then Some (id, ts) else None)
                c_i
            in
            let sorted =
              List.sort
                (fun (ida, tsa) (idb, tsb) ->
                  match Vec.compare tsa tsb with
                  | 0 -> Int.compare ida idb
                  | c -> c)
                b_i
            in
            List.iter (fun (id, _) -> ws := id :: !ws) sorted
          end)
        val_writes;
      let ws = List.rev !ws in
      (* --- lines 21–31: insert the reads --------------------------------- *)
      (* group completed reads by the timestamp they observed *)
      let read_groups : (int * info) list =
        List.filter
          (fun (id, i) ->
            Op.is_read i.op && Op.is_complete i.op && Hashtbl.mem read_tss id)
          infos
      in
      let zero = Vec.zero n in
      let prefix_reads = ref [] in
      let attached : (int, Op.t list) Hashtbl.t = Hashtbl.create 16 in
      (* writer op of a timestamp *)
      let writer_of ts =
        List.find_map
          (fun (id, info) ->
            match final_ts info ~n with
            | Some fts when Vec.equal fts ts -> Some id
            | _ -> None)
          infos
      in
      List.iter
        (fun (id, i) ->
          let ts = Hashtbl.find read_tss id in
          if Vec.equal ts zero then prefix_reads := i.op :: !prefix_reads
          else
            match writer_of ts with
            | Some wid ->
                (* reversed accumulator; re-reversed before the sort below *)
                let prev = Option.value ~default:[] (Hashtbl.find_opt attached wid) in
                Hashtbl.replace attached wid (i.op :: prev)
            | None ->
                invalid_arg
                  (Printf.sprintf
                     "Alg3: read #%d observed a timestamp written by no \
                      operation in the history"
                     id))
        read_groups;
      let by_start = List.sort (fun (a : Op.t) b -> Int.compare a.invoked b.invoked) in
      let prefix_reads = by_start (List.rev !prefix_reads) in
      let body =
        List.concat_map
          (fun wid ->
            let w = (find_info wid).op in
            let rs =
              by_start
                (List.rev
                   (Option.value ~default:[] (Hashtbl.find_opt attached wid)))
            in
            w :: rs)
          ws
      in
      prefix_reads @ body

let linearize ?metrics tr ~obj = linearize_upto ?metrics tr ~obj ~time:max_int

let write_order ?metrics tr ~obj ~time =
  linearize_upto ?metrics tr ~obj ~time
  |> List.filter Op.is_write
  |> List.map (fun (o : Op.t) -> o.id)
