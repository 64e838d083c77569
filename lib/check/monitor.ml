module Runs = Msgpass.Runs
module Sched = Simkit.Sched

type violation = { monitor : string; detail : string }

let violation_json v =
  Obs.Json.Obj
    [
      ("kind", Obs.Json.Str "violation");
      ("monitor", Obs.Json.Str v.monitor);
      ("detail", Obs.Json.Str v.detail);
    ]

let violation_of_json j =
  let module J = Obs.Json in
  let ( let* ) = Result.bind in
  Result.map_error (( ^ ) "Monitor.violation_of_json: ")
    (let* monitor = J.field "monitor" J.to_string_opt j in
     let* detail = J.field "detail" J.to_string_opt j in
     Ok { monitor; detail })

type t = {
  name : string;
  check :
    config:Runs.Config.t ->
    run:Runs.run ->
    metrics:Obs.Metrics.t ->
    violation option;
}

(* Lincheck is exact on partial histories (pending operations are
   handled), so a stalled or budget-exhausted run is still audited: an
   incomplete run must merely be linearizable so far. *)
let linearizability =
  {
    name = "linearizability";
    check =
      (fun ~config:_ ~run ~metrics ->
        match
          Linchk.Lincheck.check ~metrics ~init:(History.Value.Int 0)
            run.Runs.history
        with
        | true -> None
        | false ->
            Some
              {
                monitor = "linearizability";
                detail =
                  Printf.sprintf "history of %d ops is not linearizable"
                    (History.Hist.length run.Runs.history);
              }
        | exception Linchk.Lincheck.Too_large _ ->
            (* unreachable for chaos-sized workloads; never misreport *)
            None);
  }

(* Two distinct names on purpose: a watchdog stall and a plain budget
   exhaustion are different bugs, and the shrinker's same-monitor oracle
   must not let one degenerate into the other while minimizing. *)
let termination =
  {
    name = "termination";
    check =
      (fun ~config ~run ~metrics:_ ->
        match run.Runs.stalled with
        | Some diag ->
            Some
              {
                monitor = "termination/stalled";
                detail = Sched.stall_message diag;
              }
        | None ->
            if run.Runs.completed then None
            else
              Some
                {
                  monitor = "termination/budget";
                  detail =
                    Printf.sprintf
                      "clients still running after %d steps (budget %d)"
                      run.Runs.steps
                      (match config.Runs.Config.max_steps with
                      | Some m -> m
                      | None -> Runs.Config.auto_max_steps config);
                });
  }

(* Every quorum round records the reply count it waited for in the
   [reg.*.quorum.need] histogram; intersection needs 2*q > n.  This is
   what catches the injected [quorum = majority - 1] bug even on runs
   whose histories happen to linearize. *)
let quorum_sanity =
  {
    name = "quorum-sanity";
    check =
      (fun ~config ~run:_ ~metrics ->
        let hist =
          match config.Runs.Config.proto with
          | Runs.Config.Sw -> "reg.abd.quorum.need"
          | Runs.Config.Mw -> "reg.mwabd.quorum.need"
        in
        match Obs.Metrics.summary metrics hist with
        | None -> None (* no round ran; nothing to audit *)
        | Some s ->
            let n = config.Runs.Config.n in
            let need = int_of_float s.Obs.Metrics.min in
            if 2 * need > n then None
            else
              Some
                {
                  monitor = "quorum-sanity";
                  detail =
                    Printf.sprintf
                      "a round waited for only %d of %d replies: quorums \
                       need not intersect"
                      need n;
                });
  }

(* Every unsafe recovery that actually lost acknowledged state bumps the
   [reg.*.amnesia] counter (see [Abd.recover_node]): the replica rejoined
   quorums with a rolled-back copy, so quorum intersection no longer
   spans the crash.  This is what catches the injected
   [unsafe_recovery + `Never] bug even on runs whose histories happen to
   linearize. *)
let recovery_sanity =
  {
    name = "recovery-sanity";
    check =
      (fun ~config ~run:_ ~metrics ->
        let ctr =
          match config.Runs.Config.proto with
          | Runs.Config.Sw -> "reg.abd.amnesia"
          | Runs.Config.Mw -> "reg.mwabd.amnesia"
        in
        let lost = Obs.Metrics.counter metrics ctr in
        if lost = 0 then None
        else
          Some
            {
              monitor = "recovery-sanity";
              detail =
                Printf.sprintf
                  "%d unsafe recover%s rejoined quorums after losing \
                   acknowledged state: quorum intersection does not span \
                   the crash"
                  lost
                  (if lost = 1 then "y" else "ies");
            });
  }

let standard = [ linearizability; termination; quorum_sanity; recovery_sanity ]

let run_config ?telemetry ?tracer config =
  let metrics = Obs.Metrics.create () in
  let run = Runs.execute_config ~metrics ?tracer config in
  let v = List.find_map (fun m -> m.check ~config ~run ~metrics) standard in
  Option.iter (fun into -> Obs.Metrics.merge ~into metrics) telemetry;
  v

(* Post-mortem: re-execute with an armed flight recorder of bounded
   capacity and keep what the ring retained.  Configs re-execute
   deterministically from their own seeds, so the violation — if still
   reported — is the same one, now with its last 200 causal events. *)
let postmortem config =
  let tracer = Obs.Tracer.create ~capacity:200 () in
  match run_config ~tracer config with
  | None -> None
  | Some v -> Some (v, Obs.Tracer.events tracer)
