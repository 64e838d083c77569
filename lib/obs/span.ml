let now_ms () = Unix.gettimeofday () *. 1000.

(* The active span chain, innermost first.  The simulator is single-
   threaded (cooperative fibers under one scheduler), so one stack
   suffices. *)
let stack : string list ref = ref []

let current_path () = String.concat "/" (List.rev !stack)

let with_span ?(metrics = Metrics.global) name f =
  stack := name :: !stack;
  let path = current_path () in
  let t0 = now_ms () in
  let finish () =
    stack := List.tl !stack;
    Metrics.incr metrics ("span." ^ path ^ ".calls");
    Metrics.observe metrics ("span." ^ path ^ ".wall_ms") (now_ms () -. t0)
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let with_root ?metrics name f =
  if !stack <> [] then
    invalid_arg
      (Printf.sprintf "Span.with_root %S: a span is already open (%s)" name
         (current_path ()));
  with_span ?metrics name f
