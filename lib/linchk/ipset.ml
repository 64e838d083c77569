(* Open-addressed hash set of int pairs — the failure-memo set of the
   Lincheck DFS.  Linear probing over two parallel int arrays with a
   power-of-two capacity: a probe is two array reads and an int compare,
   no allocation (the previous Hashtbl.Make set boxed a (mask, cursor,
   value) tuple per probe and hashed it polymorphically).

   Key encoding: [k1] is stored as [k1 + 1] so that 0 marks an empty
   slot — callers' first components are >= 0 (a DFS done-mask), which
   the add/mem entry points enforce. *)

type t = {
  mutable k1 : int array; (* k1 + 1; 0 = empty *)
  mutable k2 : int array;
  mutable size : int;
  mutable mask : int; (* capacity - 1; capacity is a power of two *)
  mutable grows : int;
}

type stats = { size : int; capacity : int; occupancy : float; grows : int }

let round_cap capacity =
  let rec up c = if c >= capacity && c >= 8 then c else up (2 * c) in
  up 8

let create ?(capacity = 256) () =
  let cap = round_cap capacity in
  {
    k1 = Array.make cap 0;
    k2 = Array.make cap 0;
    size = 0;
    mask = cap - 1;
    grows = 0;
  }

let length (t : t) = t.size
let capacity (t : t) = Array.length t.k1
let occupancy (t : t) = float_of_int t.size /. float_of_int (Array.length t.k1)

let stats (t : t) =
  { size = t.size; capacity = capacity t; occupancy = occupancy t; grows = t.grows }

(* SplitMix64-style finalizing mixer over the packed pair: cheap, and
   avalanches low bits well enough that linear probing stays short even
   on the dense, highly regular masks the DFS produces. *)
let hash k1 k2 =
  (* constants are xxhash64 primes truncated to OCaml's 63-bit int range *)
  let h = ref (k1 lxor (k2 * 0x27d4eb2f165667c5)) in
  h := (!h lxor (!h lsr 29)) * 0x165667b19e3779f9;
  h := (!h lxor (!h lsr 32)) * 0x27d4eb2f165667c5;
  !h lxor (!h lsr 29)

(* The slot of the pair: the empty slot where it would go, or [lnot] of
   the slot that holds it.  An int, not an [(int * bool)] pair, so that a
   probe allocates nothing without flambda. *)
let rec probe t k1' k2 i =
  let s = t.k1.(i) in
  if s = 0 then i
  else if s = k1' && t.k2.(i) = k2 then lnot i
  else probe t k1' k2 ((i + 1) land t.mask)

let slot t k1 k2 = probe t (k1 + 1) k2 (hash k1 k2 land t.mask)

let mem t ~k1 ~k2 =
  if k1 < 0 then invalid_arg "Ipset: k1 must be >= 0";
  slot t k1 k2 < 0

let grow t =
  let old_k1 = t.k1 and old_k2 = t.k2 in
  let cap = 2 * Array.length old_k1 in
  t.k1 <- Array.make cap 0;
  t.k2 <- Array.make cap 0;
  t.mask <- cap - 1;
  t.grows <- t.grows + 1;
  Array.iteri
    (fun i s ->
      if s <> 0 then begin
        let j = probe t s old_k2.(i) (hash (s - 1) old_k2.(i) land t.mask) in
        t.k1.(j) <- s;
        t.k2.(j) <- old_k2.(i)
      end)
    old_k1

let add t ~k1 ~k2 =
  if k1 < 0 then invalid_arg "Ipset: k1 must be >= 0";
  let i = slot t k1 k2 in
  if i >= 0 then begin
    t.k1.(i) <- k1 + 1;
    t.k2.(i) <- k2;
    t.size <- t.size + 1;
    (* grow at 1/2 load so probe chains stay O(1) *)
    if 2 * t.size > Array.length t.k1 then grow t
  end

let clear t =
  Array.fill t.k1 0 (Array.length t.k1) 0;
  t.size <- 0
