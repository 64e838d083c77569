(* QCheck arbitraries over [History.Gen]'s generators.  The library draws
   from a [Random.State.t] and does not link QCheck; the tests add the
   printer that QCheck shows for a failing case. *)

module Gen = Core.Histgen

let print_hist h = Format.asprintf "%a" Core.Hist.pp h
let atomic spec = QCheck.make ~print:print_hist (Gen.atomic_history spec)
let arbitrary spec = QCheck.make ~print:print_hist (Gen.arbitrary_history spec)
