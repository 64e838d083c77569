type survival = {
  budgets : int list;
  alive_fraction : float list;
  runs : int;
}

let e1_survival ?(jobs = 1) ?(metrics = Obs.Metrics.global) ~n ~budgets ~runs
    ~seed () =
  (* flattened over budgets x runs so a single pool call load-balances the
     whole grid; the per-run seed depends only on r, as it always did *)
  let budgets_a = Array.of_list budgets in
  let alive =
    Simkit.Pool.map_runs ~jobs ~metrics
      (Array.length budgets_a * runs)
      (fun ~metrics i ->
        let budget = budgets_a.(i / runs) and r = i mod runs in
        let seed_r = Int64.add seed (Int64.of_int (r * 7919)) in
        let res =
          Thm6.run_linearizable ~metrics ~n ~rounds:budget ~seed:seed_r ()
        in
        if res.Alg1.terminated then 0 else 1)
  in
  let alive_fraction =
    List.mapi
      (fun b _ ->
        let tally = ref 0 in
        for r = 0 to runs - 1 do
          tally := !tally + alive.((b * runs) + r)
        done;
        float_of_int !tally /. float_of_int runs)
      budgets
  in
  { budgets; alive_fraction; runs }

type termination = {
  rounds : int array;
  runs : int;
  mean : float;
  max : int;
  tail : (int * float) list;
}

let summarize (rounds : int array) : termination =
  let runs = Array.length rounds in
  let mean =
    Array.fold_left (fun a r -> a +. float_of_int r) 0. rounds
    /. float_of_int (Stdlib.max 1 runs)
  in
  let max_r = Array.fold_left Stdlib.max 0 rounds in
  let tail =
    List.init (Stdlib.min 10 (max_r + 1)) (fun j ->
        let beyond = Array.fold_left (fun a r -> if r > j then a + 1 else a) 0 rounds in
        (j, float_of_int beyond /. float_of_int (Stdlib.max 1 runs)))
  in
  { rounds; runs; mean; max = max_r; tail }

let e2_termination ?(variant = Alg1.Unbounded) ?(jobs = 1)
    ?(metrics = Obs.Metrics.global) ~n ~max_rounds ~runs ~seed () =
  let rounds =
    Simkit.Pool.map_runs ~jobs ~metrics runs (fun ~metrics r ->
        let seed_r = Int64.add seed (Int64.of_int ((r * 6151) + 13)) in
        let res =
          Thm6.run_write_strong ~variant ~metrics ~n ~max_rounds ~seed:seed_r ()
        in
        res.Alg1.max_round)
  in
  summarize rounds

let atomic_termination ?(jobs = 1) ?(metrics = Obs.Metrics.global) ~n
    ~max_rounds ~runs ~seed () =
  let rounds =
    Simkit.Pool.map_runs ~jobs ~metrics runs (fun ~metrics r ->
        let seed_r = Int64.add seed (Int64.of_int ((r * 4241) + 7)) in
        let cfg =
          {
            Alg1.n;
            mode = Registers.Adv_register.Atomic;
            aux_mode = None;
            variant = Alg1.Unbounded;
            max_rounds;
            seed = seed_r;
          }
        in
        let res = Alg1.run_random ~metrics cfg ~max_steps:(max_rounds * n * 100) in
        res.Alg1.max_round)
  in
  summarize rounds

let pp_termination fmt (t : termination) =
  Format.fprintf fmt
    "@[<v>%d runs: mean termination round %.2f, max %d@,%-6s %-12s %-12s@,"
    t.runs t.mean t.max "j" "P(round>j)" "2^-j";
  List.iter
    (fun (j, p) ->
      Format.fprintf fmt "%-6d %-12.4f %-12.4f@," j p (2. ** float_of_int (-j)))
    t.tail;
  Format.fprintf fmt "@]"
