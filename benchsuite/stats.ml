(* Order statistics and a growable sample buffer.

   Quartiles follow Python's [statistics.quantiles(values, n=4)] (the
   "exclusive" method) so the suite's own quartiles and compare.py's
   agree; latency percentiles interpolate linearly between closest
   ranks. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

module Buf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.; n = 0 }

  let push b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0. in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let length b = b.n
  let to_array b = Array.sub b.a 0 b.n
end

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* [statistics.quantiles(a, n=4)] for n >= 2; the single value otherwise *)
let quartiles a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then (nan, nan)
  else if n = 1 then (s.(0), s.(0))
  else
    let q i =
      let m = n + 1 in
      let j = min (max 1 (i * m / 4)) (n - 1) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((s.(j - 1) *. (4. -. delta)) +. (s.(j) *. delta)) /. 4.
    in
    (q 1, q 3)

(* [p] in [0, 1] *)
let percentile s p =
  let n = Array.length s in
  if n = 0 then nan
  else
    let pos = p *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then s.(n - 1)
    else
      let f = pos -. float_of_int i in
      (s.(i) *. (1. -. f)) +. (s.(i + 1) *. f)
