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
    Simkit.Pool.fold_runs ~jobs ~metrics
      (Array.length budgets_a * runs)
      ~init:(Array.make (Array.length budgets_a) 0)
      ~fold:(fun alive (b, a) ->
        alive.(b) <- alive.(b) + a;
        alive)
      (fun ~metrics i ->
        let b = i / runs and r = i mod runs in
        let seed_r = Int64.add seed (Int64.of_int (r * 7919)) in
        let res =
          Thm6.run_linearizable ~metrics ~n ~rounds:budgets_a.(b) ~seed:seed_r
            ()
        in
        (b, if res.Alg1.terminated then 0 else 1))
  in
  let alive_fraction =
    Array.to_list
      (Array.map (fun a -> float_of_int a /. float_of_int runs) alive)
  in
  { budgets; alive_fraction; runs }

type termination = {
  runs : int;
  mean : float;
  max : int;
  tail : (int * float) list;
}

(* [P(round > j)] is reported for j below this *)
let tail_len = 10

(* Fold each run's termination round into (sum, max, beyond), where
   [beyond.(j)] counts the runs still going after round j. *)
let summarize ~jobs ~metrics ~runs f : termination =
  let sum, max_r, beyond =
    Simkit.Pool.fold_runs ~jobs ~metrics runs
      ~init:(0, 0, Array.make tail_len 0)
      ~fold:(fun (sum, max_r, beyond) r ->
        for j = 0 to Stdlib.min tail_len r - 1 do
          beyond.(j) <- beyond.(j) + 1
        done;
        (sum + r, Stdlib.max max_r r, beyond))
      f
  in
  let frac k = float_of_int k /. float_of_int (Stdlib.max 1 runs) in
  let tail =
    List.init (Stdlib.min tail_len (max_r + 1)) (fun j -> (j, frac beyond.(j)))
  in
  { runs; mean = frac sum; max = max_r; tail }

let e2_termination ?(variant = Alg1.Unbounded) ?(jobs = 1)
    ?(metrics = Obs.Metrics.global) ~n ~max_rounds ~runs ~seed () =
  summarize ~jobs ~metrics ~runs (fun ~metrics r ->
      let seed_r = Int64.add seed (Int64.of_int ((r * 6151) + 13)) in
      let res =
        Thm6.run_write_strong ~variant ~metrics ~n ~max_rounds ~seed:seed_r ()
      in
      res.Alg1.max_round)

let atomic_termination ?(jobs = 1) ?(metrics = Obs.Metrics.global) ~n
    ~max_rounds ~runs ~seed () =
  summarize ~jobs ~metrics ~runs (fun ~metrics r ->
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

let pp_termination fmt (t : termination) =
  Format.fprintf fmt
    "@[<v>%d runs: mean termination round %.2f, max %d@,%-6s %-12s %-12s@,"
    t.runs t.mean t.max "j" "P(round>j)" "2^-j";
  List.iter
    (fun (j, p) ->
      Format.fprintf fmt "%-6d %-12.4f %-12.4f@," j p (2. ** float_of_int (-j)))
    t.tail;
  Format.fprintf fmt "@]"
