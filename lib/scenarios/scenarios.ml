module V = History.Value
module Op = History.Op
module Hist = History.Hist
module Sched = Simkit.Sched
module Trace = Simkit.Trace
module Alg2 = Registers.Alg2
module Alg4 = Registers.Alg4

let step sched pid = ignore (Sched.step sched ~pid)

let steps sched pid k =
  for _ = 1 to k do
    step sched pid
  done

let run_out sched pid =
  let fuel = ref 64 in
  while Sched.runnable sched ~pid && !fuel > 0 do
    decr fuel;
    step sched pid
  done

(* ---------- Figure 3 ------------------------------------------------------ *)

type fig3 = {
  trace : Trace.t;
  history : Hist.t;
  t_w2 : int;
  ws_at_t : int list;
  final_ws : int list;
  w1 : int;
  w2 : int;
  w3 : int;
}

let fig3 ?metrics () =
  let sched = Sched.create ~seed:7L ?metrics () in
  Fun.protect ~finally:(fun () -> Sched.dispose sched) @@ fun () ->
  let r = Alg2.create ~sched ~name:"R" ~n:3 ~init:0 in
  Sched.spawn sched ~pid:1 (fun () -> Alg2.write r ~proc:1 101);
  Sched.spawn sched ~pid:2 (fun () -> Alg2.write r ~proc:2 102);
  Sched.spawn sched ~pid:3 (fun () -> Alg2.write r ~proc:3 103);
  (* w3 reads every Val[-] (complete timestamp [0,0,1]) but does not
     publish yet *)
  steps sched 3 4;
  (* w1 reads only Val[1]: its partial timestamp is [1,∞,∞] *)
  steps sched 1 2;
  (* w2 runs to completion: timestamp [0,1,0]; this is the paper's time t *)
  run_out sched 2;
  let tr = Sched.trace sched in
  let t_w2 = Trace.now tr in
  let ws_at_t = Linchk.Alg3.write_order ?metrics tr ~obj:"R" ~time:t_w2 in
  (* let w3 publish, then w1 finish *)
  run_out sched 3;
  run_out sched 1;
  let history = Trace.history tr in
  let ids_by_proc p =
    Hist.ops history
    |> List.find_map (fun (o : Op.t) ->
           if o.proc = p && Op.is_write o then Some o.id else None)
    |> Option.get
  in
  {
    trace = tr;
    history;
    t_w2;
    ws_at_t;
    final_ws = Linchk.Alg3.write_order ?metrics tr ~obj:"R" ~time:max_int;
    w1 = ids_by_proc 1;
    w2 = ids_by_proc 2;
    w3 = ids_by_proc 3;
  }

(* ---------- Figure 4 ------------------------------------------------------ *)

(* The common prefix G: w1 (by p1) reads Val[1..2] then stalls; w2 (by p2)
   runs to completion.  [p3] is the third process whose behaviour differs
   between the two extensions, and [extend] drives the run past G.
   Returns the whole history and its prefix G. *)
let fig4_run ?metrics ~p3_code ~extend () =
  let sched = Sched.create ~seed:11L ?metrics () in
  Fun.protect ~finally:(fun () -> Sched.dispose sched) @@ fun () ->
  let r = Alg4.create ~sched ~name:"R" ~n:3 ~init:0 in
  Sched.spawn sched ~pid:1 (fun () -> Alg4.write r ~proc:1 201);
  Sched.spawn sched ~pid:2 (fun () -> Alg4.write r ~proc:2 202);
  Sched.spawn sched ~pid:3 (p3_code r);
  (* w1: invoke, read Val[1], read Val[2] *)
  steps sched 1 3;
  (* w2: full execution *)
  run_out sched 2;
  let g_time = Trace.now (Sched.trace sched) in
  extend sched;
  let h = Trace.history (Sched.trace sched) in
  (h, Hist.prefix_upto_time h g_time)

let fig4 ?metrics () =
  (* Case-1 extension H1: w1 completes, then p3 reads (observes w2). *)
  let case1 =
    fig4_run ?metrics
      ~p3_code:(fun r () -> ignore (Alg4.read r ~proc:3))
      ~extend:(fun sched ->
        run_out sched 1;
        run_out sched 3)
      ()
  in
  (* Case-2 extension H2: w3 (by p3) completes, then w1 completes having
     seen w3's larger timestamp, then p3 reads (observes w1). *)
  let case2 =
    fig4_run ?metrics
      ~p3_code:(fun r () ->
        Alg4.write r ~proc:3 203;
        ignore (Alg4.read r ~proc:3))
      ~extend:(fun sched ->
        (* w3: invoke + 3 reads + publish = 5 steps (the same fiber then
           begins its read; stepping it 5 times completes exactly the
           write) *)
        steps sched 3 5;
        run_out sched 1;
        run_out sched 3)
      ()
  in
  Linchk.Treecheck.fork ?metrics ~init:(V.Int 0) case1 case2

(* ---------- random-run drivers ------------------------------------------- *)

type mwmr_run = { trace : Trace.t; history : Hist.t; completed : bool }

let random_run ?metrics ~n ~writes_per_proc ~reads_per_proc ~seed ~make ~write
    ~read () =
  let sched = Sched.create ~seed ?metrics () in
  Fun.protect ~finally:(fun () -> Sched.dispose sched) @@ fun () ->
  let r = make sched in
  let remaining = ref n in
  for p = 1 to n do
    Sched.spawn sched ~pid:p (fun () ->
        for k = 1 to max writes_per_proc reads_per_proc do
          if k <= writes_per_proc then write r p ((1000 * p) + k);
          if k <= reads_per_proc then ignore (read r p)
        done;
        decr remaining)
  done;
  let rng = Simkit.Rng.create (Int64.logxor seed 0x51AB07L) in
  let steps_cap = n * (writes_per_proc + reads_per_proc + 1) * (n + 4) * 8 in
  ignore
    (Sched.run sched
       ~policy:(fun s ->
         if !remaining = 0 then Sched.Halt else Sched.random_policy rng s)
       ~max_steps:steps_cap);
  let tr = Sched.trace sched in
  { trace = tr; history = Trace.history tr; completed = !remaining = 0 }

let random_alg2_run ?metrics ~n ~writes_per_proc ~reads_per_proc ~seed () =
  random_run ?metrics ~n ~writes_per_proc ~reads_per_proc ~seed
    ~make:(fun sched -> Alg2.create ~sched ~name:"R" ~n ~init:0)
    ~write:(fun r p v -> Alg2.write r ~proc:p v)
    ~read:(fun r p -> Alg2.read r ~proc:p)
    ()

let random_alg4_run ?metrics ~n ~writes_per_proc ~reads_per_proc ~seed () =
  random_run ?metrics ~n ~writes_per_proc ~reads_per_proc ~seed
    ~make:(fun sched -> Alg4.create ~sched ~name:"R" ~n ~init:0)
    ~write:(fun r p v -> Alg4.write r ~proc:p v)
    ~read:(fun r p -> Alg4.read r ~proc:p)
    ()

let check_alg2_run ?metrics run =
  if not run.completed then Error "run did not complete"
  else begin
    let init = V.Int 0 in
    let s = Linchk.Alg3.linearize ?metrics run.trace ~obj:"R" in
    if not (Hist.Seq.is_linearization_of ~init run.history s) then
      Error "Algorithm 3's output is not a linearization (L fails)"
    else begin
      (* property (P): the write order is monotone over trace prefixes *)
      let rec check_monotone prev t =
        if t > Trace.now run.trace then Ok ()
        else
          let w = Linchk.Alg3.write_order ?metrics run.trace ~obj:"R" ~time:t in
          let rec is_prefix p q =
            match (p, q) with
            | [], _ -> true
            | _, [] -> false
            | x :: p', y :: q' -> x = y && is_prefix p' q'
          in
          if is_prefix prev w then check_monotone w (t + 1)
          else
            Error
              (Printf.sprintf "write order shrank or changed at trace time %d" t)
      in
      check_monotone [] 0
    end
  end

let check_alg4_run ?metrics run =
  if not run.completed then Error "run did not complete"
  else if Linchk.Lincheck.check ?metrics ~init:(V.Int 0) run.history then Ok ()
  else Error "Algorithm 4 produced a non-linearizable history"

(* Re-export: [scenarios] is a wrapped library whose main module hides its
   siblings; expose the chaos adversary through the interface module. *)
module Chaos = Chaos
