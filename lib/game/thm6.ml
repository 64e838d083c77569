module V = History.Value
module Op = History.Op
module Adv = Registers.Adv_register
module Sched = Simkit.Sched
module Trace = Simkit.Trace

exception Stuck of string

(* Step [pid] until [pred ()] holds, with fuel so a mis-scripted schedule
   fails loudly instead of spinning. *)
let step_until sched ~pid ~what pred =
  let fuel = ref 64 in
  while not (pred ()) do
    if !fuel = 0 then
      raise (Stuck (Printf.sprintf "step_until p%d: %s" pid what));
    decr fuel;
    ignore (Sched.step sched ~pid)
  done

let pending_kind reg ~proc =
  Adv.pending reg
  |> List.find_map (fun (id, p, kind) ->
         if p = proc then Some (id, kind) else None)

let has_pending_read reg ~proc =
  match pending_kind reg ~proc with
  | Some (_, Op.Read) -> true
  | _ -> false

let has_pending_write reg ~proc =
  match pending_kind reg ~proc with
  | Some (_, Op.Write _) -> true
  | _ -> false

let no_pending reg ~proc = Option.is_none (Adv.pending_of_proc reg ~proc)

let pending_id reg ~proc =
  match Adv.pending_of_proc reg ~proc with
  | Some id -> id
  | None -> raise (Stuck (Printf.sprintf "no pending op by p%d" proc))

let position reg ~op_id =
  match Adv.position_of reg ~op_id with
  | Some p -> p
  | None -> raise (Stuck (Printf.sprintf "op #%d not committed" op_id))

let last_coin sched =
  match List.rev (Trace.coins (Sched.trace sched)) with
  | (_, _, v) :: _ -> v
  | [] -> raise (Stuck "no coin flipped yet")

(* One full round of the Theorem-6 schedule.  [reorder] says whether the
   adversary is allowed to insert host 1's write before host 0's
   (linearizable registers) or must append it (write strongly-linearizable
   ones).  [first_writer] is the host whose R1 write is linearized first
   when both orders are available pre-coin (the WSL adversary's guess).
   Returns [true] if all processes survived into the next round. *)
let play_round (h : Alg1.handles) ~players ~reorder ~first_writer =
  let sched = h.sched in
  let r1 = h.r1 and r2 = h.r2 and c = h.c in
  (* --- Phase 1, step 1: players reset R1 and C, then invoke their
     line-21 read of R1, which stays pending --------------------------- *)
  List.iter
    (fun p ->
      step_until sched ~pid:p ~what:"reach the pending line-21 read" (fun () ->
          has_pending_read r1 ~proc:p))
    players;
  (* --- step 2: both hosts invoke their R1 writes (t0) ------------------ *)
  let invoke_host i =
    step_until sched ~pid:i ~what:"invoke the round's R1 write" (fun () ->
        has_pending_write r1 ~proc:i)
  in
  invoke_host 0;
  invoke_host 1;
  let w0 = pending_id r1 ~proc:0 and w1 = pending_id r1 ~proc:1 in
  (* --- step 3: fix the pre-coin commit order -------------------------- *)
  (* Under write strong-linearizability the adversary must choose now; the
     guess is realized by stepping the guessed-first host to completion
     first.  Under plain linearizability the adversary lets host 0 commit
     (it must, to reach its coin flip) and keeps w1 pending. *)
  if (not reorder) && first_writer = 1 then
    step_until sched ~pid:1 ~what:"commit+respond w1 first (guess)" (fun () ->
        no_pending r1 ~proc:1);
  (* host 0 completes its write; the same step flips the coin and invokes
     the write of C (t1 < t_coin < t_c) *)
  step_until sched ~pid:0 ~what:"complete w0, flip coin" (fun () ->
      no_pending r1 ~proc:0);
  step_until sched ~pid:0 ~what:"complete the write of C" (fun () ->
      no_pending c ~proc:0);
  let coin = last_coin sched in
  (* --- step 4: linearize w1 against w0 based on the coin --------------- *)
  (* After this block, [first] is the R1 write linearized first and
     [second] the one linearized second. *)
  let first, second =
    if reorder then begin
      (* Theorem 6: the adversary sees the coin and then decides. *)
      if coin = 0 then begin
        (* Case 1: [1,j] after [0,j] — just let p1 run; auto-append. *)
        step_until sched ~pid:1 ~what:"append w1 after w0" (fun () ->
            no_pending r1 ~proc:1);
        (w0, w1)
      end
      else begin
        (* Case 2: insert [1,j] before [0,j] retroactively. *)
        Adv.commit r1 ~op_id:w1 ~pos:(position r1 ~op_id:w0);
        step_until sched ~pid:1 ~what:"respond the pre-inserted w1" (fun () ->
            no_pending r1 ~proc:1);
        (w1, w0)
      end
    end
    else begin
      (* Write_strong: order already fixed by the guess. *)
      if first_writer = 1 then begin
        (* w1 already committed and responded; w0 committed after it. *)
        (w1, w0)
      end
      else begin
        step_until sched ~pid:1 ~what:"append w1 after w0" (fun () ->
            no_pending r1 ~proc:1);
        (w0, w1)
      end
    end
  in
  (* --- step 5: slot the players' pending line-21 reads between the two
     writes, then let the players run through line 23 ------------------- *)
  List.iter
    (fun p ->
      let rd = pending_id r1 ~proc:p in
      Adv.commit r1 ~op_id:rd ~pos:(position r1 ~op_id:second))
    players;
  ignore first;
  (* Each player: respond line-21 read, perform line-22 read (auto-commits
     at the end, i.e. after [second]), read C, evaluate the guards.  If the
     coin matched the order they reach line 31 and invoke the R2 reset;
     otherwise they exit. *)
  let survived = ref true in
  List.iter
    (fun p ->
      step_until sched ~pid:p ~what:"run through the line-27 guard" (fun () ->
          has_pending_write r2 ~proc:p
          || (match Sched.status sched ~pid:p with
             | Simkit.Fiber.Runnable -> false
             | _ -> true)
          || Option.is_some (h.outcome_of p));
      if Option.is_some (h.outcome_of p) then survived := false)
    players;
  if not !survived then begin
    (* mismatch round: drive everyone out of the game *)
    List.iter
      (fun p ->
        let fuel = ref 128 in
        while Sched.runnable sched ~pid:p && !fuel > 0 do
          decr fuel;
          ignore (Sched.step sched ~pid:p)
        done)
      (players @ [ 0; 1 ]);
    false
  end
  else begin
    (* --- Phase 2 -------------------------------------------------------- *)
    (* hosts commit their R2 resets (line 10) and invoke the line-11 read *)
    List.iter
      (fun i ->
        step_until sched ~pid:i ~what:"commit the R2 reset (line 10)"
          (fun () -> no_pending r2 ~proc:i || has_pending_read r2 ~proc:i);
        step_until sched ~pid:i ~what:"invoke the line-11 read" (fun () ->
            has_pending_read r2 ~proc:i))
      [ 0; 1 ];
    (* players commit their R2 resets (line 31) *)
    List.iter
      (fun p ->
        step_until sched ~pid:p ~what:"commit the R2 reset (line 31)"
          (fun () -> has_pending_read r2 ~proc:p))
      players;
    (* players increment sequentially (lines 32–34), each running on into
       the next round until it has invoked its line-19 write of R1 *)
    List.iter
      (fun p ->
        step_until sched ~pid:p ~what:"finish lines 32-34, reach line 19"
          (fun () -> has_pending_write r1 ~proc:p))
      players;
    (* hosts read R2 = n-2 (line 11), survive, and invoke the next round's
       R1 write *)
    List.iter
      (fun i ->
        step_until sched ~pid:i ~what:"read R2 and enter the next round"
          (fun () -> has_pending_write r1 ~proc:i))
      [ 0; 1 ];
    true
  end

let players_of n = List.init (n - 2) (fun k -> k + 2)

let run_linearizable_variant ?(aux_mode = None) ?metrics ~variant ~n ~rounds
    ~seed () =
  if n < 3 then invalid_arg "Thm6.run_linearizable: n must be >= 3";
  if rounds < 1 then invalid_arg "Thm6.run_linearizable: rounds must be >= 1";
  let cfg =
    {
      Alg1.n;
      mode = Adv.Linearizable;
      aux_mode;
      variant;
      max_rounds = rounds + 2;
      seed;
    }
  in
  let h = Alg1.setup ?metrics cfg in
  Fun.protect ~finally:(fun () -> Sched.dispose h.sched) @@ fun () ->
  let players = players_of n in
  for _ = 1 to rounds do
    if not (play_round h ~players ~reorder:true ~first_writer:0) then
      raise (Stuck "Theorem 6 adversary failed to keep the game alive")
  done;
  Alg1.collect cfg h

let run_linearizable ?metrics ~n ~rounds ~seed () =
  run_linearizable_variant ?metrics ~variant:Alg1.Unbounded ~n ~rounds ~seed ()

let run_bounded_linearizable ?metrics ~n ~rounds ~seed () =
  run_linearizable_variant ?metrics ~variant:Alg1.Bounded ~n ~rounds ~seed ()

let run_linearizable_r1_only ?metrics ~n ~rounds ~seed () =
  (* ablation: R1 merely linearizable, R2 and C write strongly-
     linearizable — the adversary still wins, because its power comes
     entirely from reordering R1's writes after the coin *)
  run_linearizable_variant ?metrics
    ~aux_mode:(Some Adv.Write_strong)
    ~variant:Alg1.Unbounded ~n ~rounds ~seed ()

let run_write_strong ?(variant = Alg1.Unbounded) ?(aux_mode = None) ?metrics ~n
    ~max_rounds ~seed () =
  if n < 3 then invalid_arg "Thm6.run_write_strong: n must be >= 3";
  if max_rounds < 1 then
    invalid_arg "Thm6.run_write_strong: max_rounds must be >= 1";
  let cfg =
    {
      Alg1.n;
      mode = Adv.Write_strong;
      aux_mode;
      variant;
      max_rounds = max_rounds + 2;
      seed;
    }
  in
  let h = Alg1.setup ?metrics cfg in
  Fun.protect ~finally:(fun () -> Sched.dispose h.sched) @@ fun () ->
  let players = players_of n in
  let guess_rng = Simkit.Rng.create (Int64.logxor seed 0xADEADBEEFL) in
  let continue_ = ref true in
  let r = ref 0 in
  while !continue_ && !r < max_rounds do
    incr r;
    let guess = Simkit.Rng.coin guess_rng in
    continue_ := play_round h ~players ~reorder:false ~first_writer:guess
  done;
  (* drive any stragglers (e.g. hosts after a mismatch round) to completion *)
  ignore
    (Sched.run h.sched
       ~policy:(fun s -> Sched.round_robin s)
       ~max_steps:(n * 200));
  Alg1.collect cfg h
