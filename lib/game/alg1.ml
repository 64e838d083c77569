module V = History.Value
module Adv = Registers.Adv_register
module Sched = Simkit.Sched

type variant = Unbounded | Bounded
type outcome = Exited of int | Exhausted

type config = {
  n : int;
  mode : Adv.mode; (* R1's mode — the register the coin argument hinges on *)
  aux_mode : Adv.mode option; (* R2 and C; [None] means same as [mode] *)
  variant : variant;
  max_rounds : int;
  seed : int64;
}

let default =
  {
    n = 5;
    mode = Adv.Atomic;
    aux_mode = None;
    variant = Unbounded;
    max_rounds = 64;
    seed = 1L;
  }

type handles = {
  sched : Sched.t;
  r1 : Adv.t;
  r2 : Adv.t;
  c : Adv.t;
  outcome_of : int -> outcome option;
  round_of : int -> int;
}

(* value written by host [i] into R1 in round [j] (line 3 / Appendix B) *)
let host_r1_value variant i j =
  match variant with Unbounded -> V.Pair (i, j) | Bounded -> V.Int i

(* the guard of line 27 (or its Appendix-B replacement) *)
let line27_mismatch variant ~u1 ~u2 ~c ~j =
  match variant with
  | Unbounded ->
      (not (V.equal u1 (V.Pair (c, j)))) || not (V.equal u2 (V.Pair (1 - c, j)))
  | Bounded -> (not (V.equal u1 (V.Int c))) || not (V.equal u2 (V.Int (1 - c)))

let setup ?(after = fun ~pid:_ -> ()) ?metrics cfg =
  if cfg.n < 3 then invalid_arg "Alg1.setup: n must be >= 3";
  if cfg.max_rounds < 1 then invalid_arg "Alg1.setup: max_rounds must be >= 1";
  let sched = Sched.create ~seed:cfg.seed ?metrics () in
  let aux = Option.value ~default:cfg.mode cfg.aux_mode in
  let r1 = Adv.create ~sched ~name:"R1" ~init:V.Bot ~mode:cfg.mode in
  let r2 = Adv.create ~sched ~name:"R2" ~init:(V.Int 0) ~mode:aux in
  let c = Adv.create ~sched ~name:"C" ~init:V.Bot ~mode:aux in
  let outcomes : (int, outcome) Hashtbl.t = Hashtbl.create 16 in
  let rounds = Array.make cfg.n 0 in
  let record pid o = Hashtbl.replace outcomes pid o in

  (* ----- hosts: processes 0 and 1 (lines 1–16) -------------------------- *)
  let host i () =
    let exited = ref false in
    let j = ref 0 in
    while (not !exited) && !j < cfg.max_rounds do
      incr j;
      rounds.(i) <- !j;
      (* Phase 1 *)
      Adv.write r1 ~proc:i (host_r1_value cfg.variant i !j) (* line 3 *);
      if i = 0 then begin
        let cv = Sched.coin sched ~proc:i (* line 6 *) in
        Adv.write c ~proc:i (V.Int cv) (* line 7 *)
      end;
      (* Phase 2 *)
      Adv.write r2 ~proc:i (V.Int 0) (* line 10 *);
      let v =
        match Adv.read r2 ~proc:i (* line 11 *) with
        | V.Int v -> v
        | other ->
            invalid_arg
              (Printf.sprintf "Alg1: R2 held non-integer %s" (V.to_string other))
      in
      if v < cfg.n - 2 then begin
        (* lines 12–13 *)
        record i (Exited !j);
        exited := true
      end
    done;
    if !exited then after ~pid:i else record i Exhausted
  in

  (* ----- players: processes 2 … n-1 (lines 17–36) ------------------------ *)
  let player i () =
    let exited = ref false in
    let j = ref 0 in
    while (not !exited) && !j < cfg.max_rounds do
      incr j;
      rounds.(i) <- !j;
      (* Phase 1 *)
      Adv.write r1 ~proc:i V.Bot (* line 19 *);
      Adv.write c ~proc:i V.Bot (* line 20 *);
      let u1 = Adv.read r1 ~proc:i (* line 21 *) in
      let u2 = Adv.read r1 ~proc:i (* line 22 *) in
      let cv = Adv.read c ~proc:i (* line 23 *) in
      if V.equal u1 V.Bot || V.equal u2 V.Bot || V.equal cv V.Bot then begin
        (* lines 24–25 *)
        record i (Exited !j);
        exited := true
      end
      else begin
        let cbit =
          match cv with
          | V.Int b when b = 0 || b = 1 -> b
          | other ->
              invalid_arg
                (Printf.sprintf "Alg1: C held unexpected %s" (V.to_string other))
        in
        if line27_mismatch cfg.variant ~u1 ~u2 ~c:cbit ~j:!j then begin
          (* lines 27–28 *)
          record i (Exited !j);
          exited := true
        end
        else begin
          (* Phase 2 *)
          Adv.write r2 ~proc:i (V.Int 0) (* line 31 *);
          let v =
            match Adv.read r2 ~proc:i (* line 32 *) with
            | V.Int v -> v
            | other ->
                invalid_arg
                  (Printf.sprintf "Alg1: R2 held non-integer %s"
                     (V.to_string other))
          in
          Adv.write r2 ~proc:i (V.Int (v + 1)) (* lines 33–34 *)
        end
      end
    done;
    if !exited then after ~pid:i else record i Exhausted
  in

  for i = 0 to cfg.n - 1 do
    if i <= 1 then Sched.spawn sched ~pid:i (host i)
    else Sched.spawn sched ~pid:i (player i)
  done;
  {
    sched;
    r1;
    r2;
    c;
    outcome_of = (fun pid -> Hashtbl.find_opt outcomes pid);
    round_of = (fun pid -> rounds.(pid));
  }

type result = {
  outcomes : (int * outcome) list;
  max_round : int;
  terminated : bool;
  handles : handles;
}

let collect cfg h =
  let outcomes =
    List.init cfg.n (fun pid ->
        (pid, Option.value ~default:Exhausted (h.outcome_of pid)))
  in
  let max_round =
    List.fold_left (fun acc pid -> max acc (h.round_of pid)) 0
      (List.init cfg.n Fun.id)
  in
  let terminated =
    List.for_all (fun (_, o) -> match o with Exited _ -> true | _ -> false)
      outcomes
  in
  { outcomes; max_round; terminated; handles = h }

let run_with_policy ?metrics cfg ~policy ~max_steps =
  let h = setup ?metrics cfg in
  Fun.protect ~finally:(fun () -> Sched.dispose h.sched) @@ fun () ->
  ignore (Sched.run h.sched ~policy ~max_steps);
  collect cfg h

let run_random ?metrics cfg ~max_steps =
  let rng = Simkit.Rng.create (Int64.add cfg.seed 0x5DEECE66DL) in
  run_with_policy ?metrics cfg ~policy:(Sched.random_policy rng) ~max_steps

let run_round_robin ?metrics cfg ~max_steps =
  run_with_policy ?metrics cfg
    ~policy:(fun s -> Sched.round_robin s)
    ~max_steps
