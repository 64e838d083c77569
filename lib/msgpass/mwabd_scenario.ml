module V = History.Value
module Hist = History.Hist
module Sched = Simkit.Sched
module Trace = Simkit.Trace

let step sched pid = ignore (Sched.step sched ~pid)

(* deliver exactly one message from [src] to [dst] and fail loudly if it
   is not in flight (a mis-scripted schedule) *)
let deliver net ~src ~dst =
  if not (Net.deliver_from net ~src ~dst) then
    invalid_arg
      (Printf.sprintf "Mwabd_scenario: no in-flight message %d->%d" src dst)

(* deliver one message to a server and let it process it *)
let pump sched net ~src ~node =
  deliver net ~src ~dst:(Mwabd.server_pid ~node);
  step sched (Mwabd.server_pid ~node)

(* Build the common prefix G, let [extend] drive one branch past it, and
   return the branch's whole history and its prefix G. *)
let branch ~extend =
  let sched = Sched.create ~seed:23L () in
  Fun.protect ~finally:(fun () -> Sched.dispose sched) @@ fun () ->
  (* retransmission off: the scenario scripts exact message counts *)
  let reg = Mwabd.create ~retry_after:0 ~sched ~name:"MW" ~n:3 ~init:0 () in
  let net = Mwabd.net reg in
  Sched.spawn sched ~pid:0 (fun () -> Mwabd.write reg ~proc:0 301);
  Sched.spawn sched ~pid:1 (fun () -> Mwabd.write reg ~proc:1 302);
  Sched.spawn sched ~pid:2 (fun () -> ignore (Mwabd.read reg ~reader:2));
  (* w1: broadcast the timestamp query *)
  step sched 0;
  (* server 0 answers (sq 0); w1 collects it: 1 of 2 *)
  pump sched net ~src:0 ~node:0;
  deliver net ~src:(Mwabd.server_pid ~node:0) ~dst:0;
  step sched 0;
  (* server 1 computes a STALE reply (sq 0) that stays in flight *)
  pump sched net ~src:0 ~node:1;
  (* w2 runs to completion using servers 1 and 2 *)
  step sched 1;
  pump sched net ~src:1 ~node:1;
  pump sched net ~src:1 ~node:2;
  deliver net ~src:(Mwabd.server_pid ~node:1) ~dst:1;
  step sched 1;
  deliver net ~src:(Mwabd.server_pid ~node:2) ~dst:1;
  step sched 1;
  (* w2's update (⟨1,1⟩, 302) to servers 1 and 2, then the acks *)
  pump sched net ~src:1 ~node:1;
  pump sched net ~src:1 ~node:2;
  deliver net ~src:(Mwabd.server_pid ~node:1) ~dst:1;
  step sched 1;
  deliver net ~src:(Mwabd.server_pid ~node:2) ~dst:1;
  step sched 1;
  (* w2 is complete; w1 still lacks one query reply *)
  let g_time = Trace.now (Sched.trace sched) in
  extend sched net;
  let h = Trace.history (Sched.trace sched) in
  (h, Hist.prefix_upto_time h g_time)

(* finish w1's write given that its pending quorum reply just arrived *)
let finish_w1 sched net =
  step sched 0 (* collect; form timestamp; broadcast the update *);
  pump sched net ~src:0 ~node:0;
  pump sched net ~src:0 ~node:1;
  deliver net ~src:(Mwabd.server_pid ~node:0) ~dst:0;
  step sched 0;
  deliver net ~src:(Mwabd.server_pid ~node:1) ~dst:0;
  step sched 0

(* the reader queries two servers, writes back, returns *)
let run_reader sched net ~nodes =
  let a, b = nodes in
  step sched 2 (* invoke, broadcast the query *);
  pump sched net ~src:2 ~node:a;
  pump sched net ~src:2 ~node:b;
  deliver net ~src:(Mwabd.server_pid ~node:a) ~dst:2;
  step sched 2;
  deliver net ~src:(Mwabd.server_pid ~node:b) ~dst:2;
  step sched 2 (* pick max; broadcast write-back *);
  pump sched net ~src:2 ~node:a;
  pump sched net ~src:2 ~node:b;
  deliver net ~src:(Mwabd.server_pid ~node:a) ~dst:2;
  step sched 2;
  deliver net ~src:(Mwabd.server_pid ~node:b) ~dst:2;
  step sched 2

let run () =
  (* --- branch H1: the stale sq-0 reply arrives; w1 gets ⟨1,0⟩ < ⟨1,1⟩ -- *)
  let ((h1, _) as branch1) =
    branch ~extend:(fun sched net ->
        deliver net ~src:(Mwabd.server_pid ~node:1) ~dst:0;
        finish_w1 sched net;
        run_reader sched net ~nodes:(1, 2))
  in
  (* --- branch H2: server 2 (which stores sq 1) answers; w1 gets ⟨2,0⟩ -- *)
  let ((h2, _) as branch2) =
    branch ~extend:(fun sched net ->
        pump sched net ~src:0 ~node:2;
        deliver net ~src:(Mwabd.server_pid ~node:2) ~dst:0;
        (* also flush the stale sq-0 reply into the mailbox AFTER the sq-1
           one: the collect loop exits on the fresh reply and the ack loop
           ignores the stale one, keeping the (src,dst) FIFO clear for the
           acks *)
        deliver net ~src:(Mwabd.server_pid ~node:1) ~dst:0;
        finish_w1 sched net;
        run_reader sched net ~nodes:(0, 1))
  in
  (* sanity: the reads observed opposite writers *)
  let read_result h =
    Hist.reads h
    |> List.find_map (fun (o : History.Op.t) -> o.result)
  in
  if read_result h1 <> Some (V.Int 302) then
    invalid_arg "Mwabd_scenario: H1's read did not observe w2";
  if read_result h2 <> Some (V.Int 301) then
    invalid_arg "Mwabd_scenario: H2's read did not observe w1";
  Linchk.Treecheck.fork ~init:(V.Int 0) branch1 branch2
