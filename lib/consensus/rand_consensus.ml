module Sched = Simkit.Sched
module Rng = Simkit.Rng

type cfg = { n : int; max_rounds : int; seed : int64 }

type result = {
  decisions : (int * int option) list;
  agreed : bool;
  valid : bool;
  rounds_used : int;
}

type instance = {
  sched : Sched.t;
  cfg : cfg;
  instances : (int, Commit_adopt.t) Hashtbl.t; (* round -> CA instance *)
  decided : (int, int) Hashtbl.t; (* proc -> decision *)
  inputs_seen : (int, int) Hashtbl.t;
  mutable decision_reg : int option; (* shared decision register *)
  mutable max_round_used : int;
}

let make ~sched cfg =
  if cfg.n < 1 then invalid_arg "Rand_consensus.make: n must be >= 1";
  {
    sched;
    cfg;
    instances = Hashtbl.create 16;
    decided = Hashtbl.create 16;
    inputs_seen = Hashtbl.create 16;
    decision_reg = None;
    max_round_used = 0;
  }

let instance_for t r =
  match Hashtbl.find_opt t.instances r with
  | Some ca -> ca
  | None ->
      let ca =
        Commit_adopt.create ~sched:t.sched
          ~name:(Printf.sprintf "CA%d" r)
          ~n:t.cfg.n
      in
      Hashtbl.add t.instances r ca;
      ca

(* read the shared decision register: one atomic step *)
let read_decision t =
  Simkit.Fiber.yield ();
  t.decision_reg

let write_decision t v =
  Simkit.Fiber.yield ();
  (match t.decision_reg with
  | Some d when d <> v ->
      (* commit–adopt makes this impossible; fail loudly if it ever isn't *)
      invalid_arg "Rand_consensus: conflicting decisions"
  | _ -> ());
  t.decision_reg <- Some v

let body t ~proc ~input =
  Hashtbl.replace t.inputs_seen proc input;
  let rng = Rng.create (Int64.add t.cfg.seed (Int64.of_int (proc * 1299721))) in
  let v = ref input in
  let r = ref 0 in
  let out = ref None in
  while !out = None && !r < t.cfg.max_rounds do
    match read_decision t with
    | Some d -> out := Some d
    | None -> (
        incr r;
        if !r > t.max_round_used then t.max_round_used <- !r;
        let ca = instance_for t !r in
        match Commit_adopt.propose ca ~proc !v with
        | Commit_adopt.Commit w ->
            write_decision t w;
            out := Some w
        | Commit_adopt.Adopt w -> v := w
        | Commit_adopt.Flip -> v := Rng.coin rng)
  done;
  match !out with
  | Some d -> Hashtbl.replace t.decided proc d
  | None -> () (* round cap reached without a decision *)

let results t =
  let decisions =
    List.init t.cfg.n (fun i ->
        let proc = i + 1 in
        (proc, Hashtbl.find_opt t.decided proc))
  in
  let values = List.filter_map snd decisions in
  let agreed =
    match values with
    | [] -> true
    | v :: rest -> List.for_all (fun u -> u = v) rest
  in
  let inputs = Hashtbl.fold (fun _ v acc -> v :: acc) t.inputs_seen [] in
  let valid = List.for_all (fun v -> List.mem v inputs) values in
  { decisions; agreed; valid; rounds_used = t.max_round_used }

let spawn ~sched cfg ~inputs =
  let t = make ~sched cfg in
  for proc = 1 to cfg.n do
    Sched.spawn sched ~pid:proc (fun () ->
        body t ~proc ~input:(inputs proc))
  done;
  fun () -> results t

let run_random cfg ~inputs =
  let sched = Sched.create ~seed:cfg.seed () in
  Fun.protect ~finally:(fun () -> Sched.dispose sched) @@ fun () ->
  let collect = spawn ~sched cfg ~inputs in
  let rng = Rng.create (Int64.logxor cfg.seed 0x2545F491L) in
  ignore
    (Sched.run sched
       ~policy:(Sched.random_policy rng)
       ~max_steps:(cfg.n * cfg.max_rounds * cfg.n * 40));
  collect ()
