[@@@alert "-unstable"]

open Effect
open Effect.Deep

type _ Effect.t += Yield : unit Effect.t

(* Raised into a suspended fiber by [discard]; the fiber's own handler
   catches it and marks the fiber [Dead], so it never reaches a caller. *)
exception Discarded

type status = Runnable | Finished | Failed of exn

type state =
  | Not_started of (unit -> unit)
  | Suspended of (unit, unit) continuation
  | Running  (** sentinel while the fiber occupies the OCaml stack *)
  | Done
  | Dead of exn

type t = { fpid : int; mutable state : state }

let spawn ~pid f = { fpid = pid; state = Not_started f }
let pid t = t.fpid

let status t =
  match t.state with
  | Not_started _ | Suspended _ -> Runnable
  | Done -> Finished
  | Dead e -> Failed e
  | Running -> Runnable

let is_runnable t =
  match t.state with
  | Not_started _ | Suspended _ | Running -> true
  | Done | Dead _ -> false

let yield () = perform Yield

(* The yield handler is built once per fiber, not once per yield. *)
let handler t =
  let on_yield =
    Some (fun (k : (unit, unit) continuation) -> t.state <- Suspended k)
  in
  {
    retc = (fun () -> t.state <- Done);
    exnc = (fun e -> t.state <- Dead e);
    effc =
      (fun (type a) (eff : a Effect.t) :
           ((a, unit) continuation -> unit) option ->
        match eff with Yield -> on_yield | _ -> None);
  }

let step t =
  match t.state with
  | Done | Dead _ | Running ->
      invalid_arg "Fiber.step: fiber is not runnable"
  | Not_started f ->
      t.state <- Running;
      match_with f () (handler t);
      status t
  | Suspended k ->
      t.state <- Running;
      continue k ();
      status t

(* OCaml 5 frees a fiber's stack only when the fiber returns or raises:
   a continuation that is dropped without being resumed keeps its stack
   forever.  Discontinuing unwinds it through the fiber's handler instead. *)
let discard t =
  match t.state with
  | Suspended k ->
      t.state <- Running;
      discontinue k Discarded
  | Not_started _ -> t.state <- Dead Discarded
  | Running | Done | Dead _ -> ()

let run_to_completion t ~max_steps =
  let rec go n =
    if n = 0 then status t
    else
      match status t with
      | Runnable ->
          ignore (step t);
          go (n - 1)
      | s -> s
  in
  go max_steps
