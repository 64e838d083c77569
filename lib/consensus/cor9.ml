module Adv = Registers.Adv_register
module Sched = Simkit.Sched
module Alg1 = Game.Alg1
module Thm6 = Game.Thm6

type cfg = {
  n : int;
  gate_rounds : int;
  consensus_max_rounds : int;
  seed : int64;
}

type outcome = {
  game : Alg1.result;
  consensus : Rand_consensus.result;
  blocked : bool;
}

let players_of n = List.init (n - 2) (fun k -> k + 2)

(* Build 𝒜′: Algorithm 1 whose [after] hook runs the consensus body.  The
   consensus instance shares the game's scheduler; consensus process ids
   are 1-based (game pid + 1). *)
let setup_a' ?metrics cfg ~mode ~inputs =
  let game_cfg =
    {
      Alg1.n = cfg.n;
      mode;
      aux_mode = None;
      variant = Alg1.Unbounded;
      max_rounds = cfg.gate_rounds + 2;
      seed = cfg.seed;
    }
  in
  (* the scheduler is created inside Alg1.setup; thread the consensus
     instance lazily through a forward reference *)
  let inst = ref None in
  let after ~pid =
    match !inst with
    | Some t -> Rand_consensus.body t ~proc:(pid + 1) ~input:(inputs pid)
    | None -> assert false
  in
  let handles = Alg1.setup ~after ?metrics game_cfg in
  let ccfg =
    {
      Rand_consensus.n = cfg.n;
      max_rounds = cfg.consensus_max_rounds;
      seed = Int64.logxor cfg.seed 0x00C0FFEEL;
    }
  in
  inst := Some (Rand_consensus.make ~sched:handles.Alg1.sched ccfg);
  (game_cfg, handles, Option.get !inst)

let run_blocked ?metrics cfg =
  if cfg.n < 3 then invalid_arg "Cor9.run_blocked: n must be >= 3";
  let game_cfg, handles, inst =
    setup_a' ?metrics cfg ~mode:Adv.Linearizable ~inputs:(fun pid -> pid mod 2)
  in
  Fun.protect ~finally:(fun () -> Sched.dispose handles.Alg1.sched) @@ fun () ->
  let players = players_of cfg.n in
  for _ = 1 to cfg.gate_rounds do
    if not (Thm6.play_round handles ~players ~reorder:true ~first_writer:0)
    then invalid_arg "Cor9.run_blocked: the adversary lost control"
  done;
  let game = Alg1.collect game_cfg handles in
  let consensus = Rand_consensus.results inst in
  let blocked =
    List.for_all (fun (_, d) -> Option.is_none d)
      consensus.Rand_consensus.decisions
    && not game.Alg1.terminated
  in
  { game; consensus; blocked }

let run_live ?metrics cfg ~inputs =
  if cfg.n < 3 then invalid_arg "Cor9.run_live: n must be >= 3";
  let game_cfg, handles, inst =
    setup_a' ?metrics cfg ~mode:Adv.Write_strong ~inputs
  in
  Fun.protect ~finally:(fun () -> Sched.dispose handles.Alg1.sched) @@ fun () ->
  let players = players_of cfg.n in
  let guess_rng = Simkit.Rng.create (Int64.logxor cfg.seed 0xBADC0DEL) in
  let continue_ = ref true in
  let r = ref 0 in
  while !continue_ && !r < cfg.gate_rounds do
    incr r;
    let guess = Simkit.Rng.coin guess_rng in
    continue_ := Thm6.play_round handles ~players ~reorder:false ~first_writer:guess
  done;
  (* the gate has opened (almost surely); let the consensus fibers run *)
  ignore
    (Sched.run handles.Alg1.sched
       ~policy:(fun s -> Sched.round_robin s)
       ~max_steps:(cfg.n * cfg.n * cfg.consensus_max_rounds * 100));
  let game = Alg1.collect game_cfg handles in
  let consensus = Rand_consensus.results inst in
  { game; consensus; blocked = false }
