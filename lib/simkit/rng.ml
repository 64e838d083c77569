(* The SplitMix64 state lives unboxed in 8 bytes: a mutable [int64] record
   field would allocate a fresh box on every draw. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 seed;
  t

let copy = Bytes.copy

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next_int64 t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 s;
  mix s

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let x = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  x mod bound

let float t =
  (* 53 high-quality bits -> uniform in [0, 1) *)
  Int64.to_float (Int64.shift_right_logical (next_int64 t) 11)
  *. (1. /. 9007199254740992.)

let bool t = Int64.equal (Int64.logand (next_int64 t) 1L) 1L
let coin t = if bool t then 1 else 0
let split t = create (mix (next_int64 t))
let nth_seed seed i =
  Int64.add seed (Int64.mul (Int64.of_int (i + 1)) golden_gamma)
