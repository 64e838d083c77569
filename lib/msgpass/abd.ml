(* a timestamp is the writer's sequence number; every replica starts at 0 *)
module R = Replica.Make (struct
  type t = int

  let init ~node:_ = 0
  let compare = Int.compare
  let field ts = ("ts", Obs.Json.Int ts)
end)

type msg = R.msg
type persist = Replica.persist

type t = { r : R.t; writer_ : int; mutable wseq : int (* last ts issued *) }

let create ?retry_after ?quorum ?persist ?unsafe_recovery ?compact ~sched ~name
    ~n ~writer ~init () =
  if writer < 0 || writer >= n then invalid_arg "Abd.create: writer out of range";
  let r =
    R.create ?retry_after ?quorum ?persist ?unsafe_recovery ?compact
      ~proto:"abd" ~sched ~name ~n ~init ()
  in
  { r; writer_ = writer; wseq = 0 }

let net t = R.net t.r
let name t = R.name t.r
let n t = R.n t.r
let writer t = t.writer_
let majority t = R.majority t.r

(* one round: the writer alone issues timestamps, so its counter is
   already larger than every replica's *)
let write t v =
  R.write t.r ~proc:t.writer_ v ~stamp:(fun _query ->
      t.wseq <- t.wseq + 1;
      t.wseq)

let read t ~reader = R.read t.r ~reader
let crash_node t ~node = R.crash_node t.r ~node
let recover_node t ~node = R.recover_node t.r ~node
let server_pid = R.server_pid
