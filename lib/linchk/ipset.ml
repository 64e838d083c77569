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

let rec probe t k1' k2 i =
  let s = t.k1.(i) in
  if s = 0 then (i, false)
  else if s = k1' && t.k2.(i) = k2 then (i, true)
  else probe t k1' k2 ((i + 1) land t.mask)

let slot t k1 k2 = probe t (k1 + 1) k2 (hash k1 k2 land t.mask)

let mem t ~k1 ~k2 =
  if k1 < 0 then invalid_arg "Ipset: k1 must be >= 0";
  snd (slot t k1 k2)

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
        let j, _ = probe t s old_k2.(i) (hash (s - 1) old_k2.(i) land t.mask) in
        t.k1.(j) <- s;
        t.k2.(j) <- old_k2.(i)
      end)
    old_k1

let add t ~k1 ~k2 =
  if k1 < 0 then invalid_arg "Ipset: k1 must be >= 0";
  let i, present = slot t k1 k2 in
  if not present then begin
    t.k1.(i) <- k1 + 1;
    t.k2.(i) <- k2;
    t.size <- t.size + 1;
    (* grow at 1/2 load so probe chains stay O(1) *)
    if 2 * t.size > Array.length t.k1 then grow t
  end

(* Sharded concurrent variant (see the .mli for the soundness story).
   Entries are immutable boxed pairs behind per-slot atomics: a slot CAS
   from [Empty] is the only mutation a live table ever sees, so readers
   can never observe a torn pair — false positives are structurally
   impossible, which is what the memo's pruning soundness rests on. *)
module Sharded = struct
  (* [Moved]: a slot that was still empty when a rehash copied its table.
     Freezing every such slot before the new table is published means no
     add can land in the old table behind the copy. *)
  type entry = Empty | Pair of int * int | Moved

  type shard = {
    tab : entry Atomic.t array Atomic.t;
    size : int Atomic.t;
    grows : int Atomic.t;
    lock : Mutex.t; (* serializes rehashes only; add/mem stay lock-free *)
  }

  type t = {
    shards : shard array;
    shard_mask : int;
    shard_bits : int; (* slot hash = pair hash shifted past shard bits *)
  }

  let fresh_tab cap = Array.init cap (fun _ -> Atomic.make Empty)

  let create ?(shards = 8) ?(capacity = 256) () =
    let ns =
      let rec up c = if c >= shards && c >= 1 then c else up (2 * c) in
      up 1
    in
    let bits =
      let rec go b c = if c <= 1 then b else go (b + 1) (c / 2) in
      go 0 ns
    in
    let cap = round_cap capacity in
    {
      shards =
        Array.init ns (fun _ ->
            {
              tab = Atomic.make (fresh_tab cap);
              size = Atomic.make 0;
              grows = Atomic.make 0;
              lock = Mutex.create ();
            });
      shard_mask = ns - 1;
      shard_bits = bits;
    }

  let shards t = Array.length t.shards

  let mem t ~k1 ~k2 =
    if k1 < 0 then invalid_arg "Ipset.Sharded: k1 must be >= 0";
    let h = hash k1 k2 in
    let sh = t.shards.(h land t.shard_mask) in
    let tab = Atomic.get sh.tab in
    let mask = Array.length tab - 1 in
    let rec probe i steps =
      (* [steps] bounds the scan: a racing rehash could otherwise chase a
         chain across tables forever.  Bailing out early is a sound
         false negative. *)
      if steps > mask then false
      else
        match Atomic.get tab.(i) with
        | Empty | Moved -> false
        | Pair (a, b) when a = k1 && b = k2 -> true
        | Pair _ -> probe ((i + 1) land mask) (steps + 1)
    in
    probe ((h lsr t.shard_bits) land mask) 0

  (* Rehash [sh] into a table twice the size of [cur].  Under the shard
     lock; re-checks that [cur] is still current so two adders racing to
     grow don't double it twice.  Each empty slot of [cur] is frozen to
     [Moved] before the new table is published, so an add either landed
     in [cur] before the copy reached its slot (and is copied) or sees
     [Moved] and retries on the new table. *)
  let grow_shard t sh cur =
    Mutex.lock sh.lock;
    if Atomic.get sh.tab == cur then begin
      let cap = 2 * Array.length cur in
      let mask = cap - 1 in
      let tab = fresh_tab cap in
      let rec place e i =
        match Atomic.get tab.(i) with
        | Empty -> Atomic.set tab.(i) e
        | Pair _ | Moved -> place e ((i + 1) land mask)
      in
      let rec copy slot =
        match Atomic.get slot with
        | Empty -> if not (Atomic.compare_and_set slot Empty Moved) then copy slot
        | Moved -> ()
        | Pair (a, b) as e -> place e ((hash a b lsr t.shard_bits) land mask)
      in
      Array.iter copy cur;
      Atomic.incr sh.grows;
      Atomic.set sh.tab tab
    end;
    Mutex.unlock sh.lock

  let add t ~k1 ~k2 =
    if k1 < 0 then invalid_arg "Ipset.Sharded: k1 must be >= 0";
    let h = hash k1 k2 in
    let sh = t.shards.(h land t.shard_mask) in
    let rec attempt () =
      let tab = Atomic.get sh.tab in
      let mask = Array.length tab - 1 in
      let rec probe i =
        match Atomic.get tab.(i) with
        | Pair (a, b) when a = k1 && b = k2 -> `Present
        | Pair _ -> probe ((i + 1) land mask)
        | Moved -> `Retired
        | Empty ->
            if Atomic.compare_and_set tab.(i) Empty (Pair (k1, k2)) then
              `Inserted
            else probe i (* lost the slot; re-inspect it *)
      in
      match probe ((h lsr t.shard_bits) land mask) with
      | `Present -> ()
      | `Retired ->
          (* a rehash is copying [tab]: wait for it to publish, then retry *)
          Mutex.lock sh.lock;
          Mutex.unlock sh.lock;
          attempt ()
      | `Inserted ->
          let size = 1 + Atomic.fetch_and_add sh.size 1 in
          let cur = Atomic.get sh.tab in
          if 2 * size > Array.length cur then grow_shard t sh cur
    in
    attempt ()

  let length t =
    Array.fold_left (fun acc sh -> acc + Atomic.get sh.size) 0 t.shards

  let capacity t =
    Array.fold_left
      (fun acc sh -> acc + Array.length (Atomic.get sh.tab))
      0 t.shards

  let occupancy t = float_of_int (length t) /. float_of_int (capacity t)

  let stats t =
    {
      size = length t;
      capacity = capacity t;
      occupancy = occupancy t;
      grows = Array.fold_left (fun acc sh -> acc + Atomic.get sh.grows) 0 t.shards;
    }

  let shard_occupancy t =
    Array.map
      (fun sh ->
        float_of_int (Atomic.get sh.size)
        /. float_of_int (Array.length (Atomic.get sh.tab)))
      t.shards
end
