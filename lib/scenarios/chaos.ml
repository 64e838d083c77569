module V = History.Value
module Adv = Registers.Adv_register
module Sched = Simkit.Sched
module Rng = Simkit.Rng

type outcome = {
  history : History.Hist.t;
  witness : History.Op.t list;
  commit_log : (int * int list) list;
  attempted_edits : int;
  refused_edits : int;
}

let run ~mode ~n_procs ~ops_per_proc ~seed =
  if n_procs < 1 then invalid_arg "Chaos.run: n_procs must be >= 1";
  let sched = Sched.create ~seed () in
  Fun.protect ~finally:(fun () -> Sched.dispose sched) @@ fun () ->
  let r = Adv.create ~sched ~name:"R" ~init:(V.Int 0) ~mode in
  let next_val = ref 100 in
  for pid = 1 to n_procs do
    Sched.spawn sched ~pid (fun () ->
        for k = 1 to ops_per_proc do
          if (pid + k) mod 2 = 0 then begin
            incr next_val;
            Adv.write r ~proc:pid (V.Int !next_val)
          end
          else ignore (Adv.read r ~proc:pid)
        done)
  done;
  let rng = Rng.create (Int64.logxor seed 0xC0A0C0L) in
  let attempted = ref 0 in
  let refused = ref 0 in
  let max_rounds = n_procs * ops_per_proc * 40 in
  let rounds = ref 0 in
  while Sched.live_count sched > 0 && !rounds < max_rounds do
    incr rounds;
    let pend = Adv.pending r in
    let do_edit = pend <> [] && mode <> Adv.Atomic && Rng.bool rng in
    if do_edit then begin
      let op_id, _, _ = List.nth pend (Rng.int rng (List.length pend)) in
      let len = List.length (Adv.committed_ids r) in
      let pos = Rng.int rng (len + 1) in
      incr attempted;
      match Adv.commit r ~op_id ~pos with
      | () -> ()
      | exception Adv.Illegal _ -> incr refused
    end
    else begin
      let pid = Sched.live_nth sched (Rng.int rng (Sched.live_count sched)) in
      ignore (Sched.step sched ~pid)
    end
  done;
  {
    history = Simkit.Trace.history (Sched.trace sched);
    witness = Adv.linearization r;
    commit_log = Adv.write_commit_log r;
    attempted_edits = !attempted;
    refused_edits = !refused;
  }
