module J = Obs.Json
module Inc = Linchk.Increment

(* Per-segment verdict records: the serving checker's unit of output.

   Deliberately wall-clock-free — every field is a deterministic function
   of the input event stream and the serve configuration, so a
   [--resume]d run re-emits byte-identical records and CI can diff the
   stream against the offline reference checker.  The [Unknown] reasons
   reuse the structured-record idiom of [Simkit.Sched.stall_json]: a
   stable short cause plus the numbers that tripped it. *)

type outcome = Ok_ | Fail | Unknown of Inc.reason

type t = {
  obj : string;
  segment : int; (* per-object segment number, 0-based *)
  from_t : int; (* time of the segment's first invocation *)
  to_t : int; (* time of its last event *)
  ops : int; (* invocations in the segment *)
  closed : bool; (* true: retired at a quiescent point; false: EOF flush *)
  outcome : outcome;
  entry_vals : int; (* size of the feasible entry-value set *)
  entry_any : bool; (* entry set was an over-approximation *)
  final_vals : int; (* feasible boundary values (0 unless closed Ok) *)
}

let reason_json r =
  let base = [ ("cause", J.Str (Inc.reason_cause r)) ] in
  J.Obj
    (base
    @
    match r with
    | Inc.Op_cap { n; cap } -> [ ("n", J.Int n); ("cap", J.Int cap) ]
    | Inc.State_budget { states; budget } ->
        [ ("states", J.Int states); ("budget", J.Int budget) ]
    | Inc.Shed { pending; max_pending } ->
        [ ("pending", J.Int pending); ("max_pending", J.Int max_pending) ]
    | Inc.Entry_overflow { cap } -> [ ("cap", J.Int cap) ])

let json v =
  J.Obj
    ([
       ("kind", J.Str "segment_verdict");
       ("obj", J.Str v.obj);
       ("segment", J.Int v.segment);
       ("from", J.Int v.from_t);
       ("to", J.Int v.to_t);
       ("ops", J.Int v.ops);
       ("closed", J.Bool v.closed);
       ( "verdict",
         J.Str
           (match v.outcome with
           | Ok_ -> "ok"
           | Fail -> "fail"
           | Unknown _ -> "unknown") );
     ]
    @ (match v.outcome with
      | Unknown r -> [ ("reason", reason_json r) ]
      | Ok_ | Fail -> [])
    @ [
        ("entry_vals", J.Int v.entry_vals);
        ("entry_any", J.Bool v.entry_any);
        ("final_vals", J.Int v.final_vals);
      ])

let equal a b = J.equal (json a) (json b)
