(* timestamps ⟨sq, pid⟩, compared lexicographically.  Replica [node]
   starts at ⟨0, node⟩, so even write-backs of the initial value order
   the replicas' copies. *)
include Replica.Make (struct
  type t = int * int

  let init ~node = (0, node)

  let compare (sq1, p1) (sq2, p2) =
    match Int.compare sq1 sq2 with 0 -> Int.compare p1 p2 | c -> c

  let field (sq, _) = ("sq", Obs.Json.Int sq)
end)

type persist = Replica.persist

let create ?retry_after ?quorum ?persist ?unsafe_recovery ?compact ~sched ~name
    ~n ~init () =
  create ?retry_after ?quorum ?persist ?unsafe_recovery ?compact ~proto:"mwabd"
    ~sched ~name ~n ~init ()

(* query a quorum for the largest sequence number, then push
   (v, ⟨max+1, proc⟩) — a Lamport timestamp, as in Algorithm 4 *)
let write t ~proc v =
  write t ~proc v ~stamp:(fun query -> (fst (query ()) + 1, proc))
