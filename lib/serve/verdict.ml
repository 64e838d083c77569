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

let reason_of_json j =
  let int k = Option.bind (J.member k j) J.to_int_opt in
  match Option.bind (J.member "cause" j) J.to_string_opt with
  | Some "op-cap" -> (
      match (int "n", int "cap") with
      | Some n, Some cap -> Ok (Inc.Op_cap { n; cap })
      | _ -> Error "op-cap reason: missing \"n\" or \"cap\"")
  | Some "state-budget" -> (
      match (int "states", int "budget") with
      | Some states, Some budget -> Ok (Inc.State_budget { states; budget })
      | _ -> Error "state-budget reason: missing \"states\" or \"budget\"")
  | Some "shed" -> (
      match (int "pending", int "max_pending") with
      | Some pending, Some max_pending ->
          Ok (Inc.Shed { pending; max_pending })
      | _ -> Error "shed reason: missing \"pending\" or \"max_pending\"")
  | Some "entry-overflow" -> (
      match int "cap" with
      | Some cap -> Ok (Inc.Entry_overflow { cap })
      | None -> Error "entry-overflow reason: missing \"cap\"")
  | Some c -> Error (Printf.sprintf "unknown verdict reason cause %S" c)
  | None -> Error "verdict reason: missing \"cause\""

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

let of_json j =
  let str k = Option.bind (J.member k j) J.to_string_opt in
  let int k = Option.bind (J.member k j) J.to_int_opt in
  let bool k =
    Option.bind (J.member k j) (function J.Bool b -> Some b | _ -> None)
  in
  match
    ( str "obj",
      int "segment",
      int "from",
      int "to",
      int "ops",
      bool "closed",
      str "verdict",
      int "entry_vals",
      bool "entry_any",
      int "final_vals" )
  with
  | ( Some obj,
      Some segment,
      Some from_t,
      Some to_t,
      Some ops,
      Some closed,
      Some verdict,
      Some entry_vals,
      Some entry_any,
      Some final_vals ) -> (
      let mk outcome =
        Ok
          {
            obj;
            segment;
            from_t;
            to_t;
            ops;
            closed;
            outcome;
            entry_vals;
            entry_any;
            final_vals;
          }
      in
      match verdict with
      | "ok" -> mk Ok_
      | "fail" -> mk Fail
      | "unknown" -> (
          match J.member "reason" j with
          | None -> Error "unknown verdict without a \"reason\""
          | Some r -> (
              match reason_of_json r with
              | Ok r -> mk (Unknown r)
              | Error e -> Error e))
      | v -> Error (Printf.sprintf "unknown verdict %S" v))
  | _ -> Error "segment_verdict: missing or mistyped field"

let equal a b = J.equal (json a) (json b)

let pp fmt v =
  Format.fprintf fmt "%s[%d] t%d..%d %dops %s%s" v.obj v.segment v.from_t
    v.to_t v.ops
    (match v.outcome with
    | Ok_ -> "ok"
    | Fail -> "FAIL"
    | Unknown r -> "unknown(" ^ Inc.reason_cause r ^ ")")
    (if v.closed then "" else " (flush)")
