(* Histograms are log-linear, HDR-style.  Each power of two (an
   "octave") splits into [subs] = 32 equal sub-buckets, and a positive
   sample's bucket key is its octave and the top [sub_bits] bits of its
   mantissa, read straight off its IEEE-754 bits.  So the integers 0..63
   have buckets of their own, and any other quantile is reported as the
   lower edge of the bucket holding the exact order statistic, at most
   1/32 below it.  Count, sum, min and max stay exact.  Samples <= 0
   share one exact zero bucket; NaN, infinities and magnitudes outside
   [2^min_octave, 2^(max_octave + 1)) go to the edge buckets.  The
   bucket array covers whole octaves from the lowest seen to the
   highest, so it never holds more than [max_buckets] ints, and a merge
   is a per-bucket add. *)
let sub_bits = 5
let subs = 1 lsl sub_bits
let min_octave = -32
let max_octave = 63
let min_key = min_octave * subs
let max_key = ((max_octave + 1) * subs) - 1
let max_buckets = max_key - min_key + 1

(* sum, min and max in an all-float record, stored unboxed: recording a
   sample allocates nothing *)
type stats = {
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
}

type hist = {
  mutable count : int;
  mutable zeros : int;  (* samples <= 0 *)
  mutable base : int;  (* key of [buckets.(0)]; a multiple of [subs] *)
  mutable buckets : int array;
  stats : stats;
}

(* a gauge's value, unboxed: setting it allocates nothing *)
type cell = { mutable v : float }

type t = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, cell) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 16;
    hists = Hashtbl.create 16;
  }

(* ----- handles: the allocation-free recording path ------------------------

   A handle is the interior mutable cell of a metric, resolved from the
   name table once (at registry/component construction or checker entry)
   so the per-event cost is a bare [ref] bump instead of a string hash +
   Hashtbl probe.  Handles alias the same cells the string API updates,
   so [merge], [snapshot]/[flat] and the per-run-registry isolation of
   Simkit.Pool.fold_runs see recordings from either path identically. *)

module Counter = struct
  type t = int ref
end

module Gauge = struct
  (* Resolving a gauge handle must NOT create the gauge: a gauge exists
     in snapshots only once set (unlike counters, gauges have no neutral
     value — reporting an unset gauge as 0 would invent a reading).  The
     cell is therefore bound lazily on the first [set]. *)
  type t = {
    tbl : (string, cell) Hashtbl.t;
    name : string;
    mutable cell : cell option;
  }
end

module Hist = struct
  type t = hist
end

let counter_h t name : Counter.t =
  match Hashtbl.find t.counters name with
  | r -> r
  | exception Not_found ->
      let r = ref 0 in
      Hashtbl.add t.counters name r;
      r

let incr_h ?(by = 1) (c : Counter.t) =
  if by < 0 then invalid_arg "Metrics.incr: counters are monotone (by < 0)";
  c := !c + by

let read_h (c : Counter.t) = !c

let gauge_cell tbl name =
  match Hashtbl.find tbl name with
  | c -> c
  | exception Not_found ->
      let c = { v = 0. } in
      Hashtbl.add tbl name c;
      c

let gauge_h t name : Gauge.t =
  { Gauge.tbl = t.gauges; name; cell = Hashtbl.find_opt t.gauges name }

let bind (g : Gauge.t) =
  match g.Gauge.cell with
  | Some c -> c
  | None ->
      let c = gauge_cell g.Gauge.tbl g.Gauge.name in
      g.Gauge.cell <- Some c;
      c

let set_gauge_h g v = (bind g).v <- v
let set_gauge_int_h g n = (bind g).v <- float_of_int n

let hist_h t name : Hist.t =
  match Hashtbl.find t.hists name with
  | h -> h
  | exception Not_found ->
      let h =
        {
          count = 0;
          zeros = 0;
          base = 0;
          buckets = [||];
          stats =
            { sum = 0.; min_v = Float.infinity; max_v = Float.neg_infinity };
        }
      in
      Hashtbl.add t.hists name h;
      h

(* The bucket key of a sample that is positive or NaN: octave * [subs]
   plus the top [sub_bits] mantissa bits, which are the 16 bits below
   the sign bit once shifted down.  The bits, not [Float.frexp], whose
   tuple would be allocated per sample.  Subnormals, infinities and NaN
   fall off the octave range and clamp to its edges. *)
let key v =
  let k =
    Int64.to_int
      (Int64.shift_right_logical (Int64.bits_of_float v) (52 - sub_bits))
    land ((1 lsl (11 + sub_bits)) - 1)
    - (1023 * subs)
  in
  if k < min_key then min_key else if k > max_key then max_key else k

(* a bucket's lower edge: (1 + sub/32) * 2^octave *)
let lower_edge k =
  Float.ldexp
    (float_of_int (subs + (k land (subs - 1))))
    ((k asr sub_bits) - sub_bits)

(* The index of key [k] in [h.buckets], first widening the array to
   whole octaves reaching [k] if it falls outside. *)
let slot (h : hist) k =
  let i = k - h.base and n = Array.length h.buckets in
  if i >= 0 && i < n then i
  else begin
    let lo = k land lnot (subs - 1) in
    let base, top =
      if n = 0 then (lo, lo + subs)
      else (Stdlib.min h.base lo, Stdlib.max (h.base + n) (lo + subs))
    in
    let a = Array.make (top - base) 0 in
    if n > 0 then Array.blit h.buckets 0 a (h.base - base) n;
    h.base <- base;
    h.buckets <- a;
    k - base
  end

let observe_h (h : Hist.t) v =
  h.count <- h.count + 1;
  let s = h.stats in
  s.sum <- s.sum +. v;
  if v < s.min_v then s.min_v <- v;
  if v > s.max_v then s.max_v <- v;
  if v <= 0. then h.zeros <- h.zeros + 1
  else
    let i = slot h (key v) in
    h.buckets.(i) <- h.buckets.(i) + 1

(* ----- string API: thin wrappers over the handles ------------------------- *)

let incr ?by t name = incr_h ?by (counter_h t name)
let set_gauge t name v = set_gauge_h (gauge_h t name) v
let observe t name v = observe_h (hist_h t name) v

let counter t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

(* Fold [src] into [into], exactly as if every recording made into [src]
   had been made into [into] instead, in the same order: counters add,
   gauges overwrite (last write wins), histograms add bucket by bucket
   (count, extrema and every bucket exact).  Used by the parallel
   run harness (Simkit.Pool.fold_runs) to fold each run's registry into
   the experiment's registry, in run order, as soon as every earlier run
   has finished; those merges are serialized but may happen on any
   domain. *)
let merge ~into src =
  Hashtbl.iter
    (fun name r ->
      let d = counter_h into name in
      d := !d + !r)
    src.counters;
  Hashtbl.iter
    (fun name c -> (gauge_cell into.gauges name).v <- c.v)
    src.gauges;
  Hashtbl.iter
    (fun name (h : hist) ->
      if h.count > 0 then begin
        let d = hist_h into name in
        d.count <- d.count + h.count;
        d.zeros <- d.zeros + h.zeros;
        d.stats.sum <- d.stats.sum +. h.stats.sum;
        if h.stats.min_v < d.stats.min_v then d.stats.min_v <- h.stats.min_v;
        if h.stats.max_v > d.stats.max_v then d.stats.max_v <- h.stats.max_v;
        let n = Array.length h.buckets in
        if n > 0 then begin
          ignore (slot d h.base);
          let off = slot d (h.base + n - 1) - (n - 1) in
          for i = 0 to n - 1 do
            d.buckets.(off + i) <- d.buckets.(off + i) + h.buckets.(i)
          done
        end
      end)
    src.hists

let gauge t name = Option.map (fun c -> c.v) (Hashtbl.find_opt t.gauges name)

type summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  mean : float;
  p50 : float;
  p90 : float;
  p95 : float;
  p99 : float;
}

(* The sample of 0-based rank round(q * (count - 1)), the rank an exact
   sort would read, reported as its bucket's lower edge clamped into
   [min, max].  Every sample lies in [min, max], so the clamp never lifts
   the report above the exact value, and it makes the report exact when
   that sample is the minimum (so one repeated value reads exactly). *)
let quantile (h : hist) q =
  let r = int_of_float (Float.round (q *. float_of_int (h.count - 1))) in
  let rec walk r i =
    if r < h.buckets.(i) then lower_edge (h.base + i)
    else walk (r - h.buckets.(i)) (i + 1)
  in
  let v = if r < h.zeros then 0. else walk (r - h.zeros) 0 in
  Float.min h.stats.max_v (Float.max h.stats.min_v v)

let summarize (h : hist) =
  let s = h.stats in
  let q = quantile h in
  {
    count = h.count;
    sum = s.sum;
    min = s.min_v;
    max = s.max_v;
    mean = s.sum /. float_of_int h.count;
    p50 = q 0.5;
    p90 = q 0.9;
    p95 = q 0.95;
    p99 = q 0.99;
  }

let summary t name =
  match Hashtbl.find_opt t.hists name with
  | Some h when h.count > 0 -> Some (summarize h)
  | _ -> None

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * summary) list;
}

let by_name (a, _) (b, _) = String.compare a b

let snapshot (t : t) =
  let sorted f tbl = List.sort by_name (Hashtbl.fold f tbl []) in
  {
    counters = sorted (fun k r acc -> (k, !r) :: acc) t.counters;
    gauges = sorted (fun k c acc -> (k, c.v) :: acc) t.gauges;
    histograms =
      sorted
        (fun k (h : hist) acc ->
          if h.count = 0 then acc else (k, summarize h) :: acc)
        t.hists;
  }

(* Every histogram with samples as its zero count and its occupied
   buckets by key: what a merge must reproduce exactly, whatever extent
   the two bucket arrays happen to cover. *)
let buckets (t : t) =
  Hashtbl.fold
    (fun k (h : hist) acc ->
      if h.count = 0 then acc
      else
        let occupied = ref [] in
        for i = Array.length h.buckets - 1 downto 0 do
          if h.buckets.(i) > 0 then
            occupied := (h.base + i, h.buckets.(i)) :: !occupied
        done;
        (k, (h.zeros, !occupied)) :: acc)
    t.hists []
  |> List.sort by_name

(* [compare], not [(=)]: a NaN sum or gauge equals itself *)
let equal a b = compare (snapshot a, buckets a) (snapshot b, buckets b) = 0

let flat t =
  let s = snapshot t in
  List.sort by_name
    (List.filter_map
       (fun (n, v) -> if v > 0 then Some (n, float_of_int v) else None)
       s.counters
    @ s.gauges
    @ List.concat_map
        (fun (n, (h : summary)) ->
          [
            (n ^ ".n", float_of_int h.count);
            (n ^ ".mean", h.mean);
            (n ^ ".p50", h.p50);
            (n ^ ".p95", h.p95);
            (n ^ ".p99", h.p99);
          ])
        s.histograms)

let pp fmt t =
  let s = snapshot t in
  Format.fprintf fmt "@[<v>";
  if s.counters <> [] then begin
    Format.fprintf fmt "%-34s %12s@," "counter" "value";
    List.iter
      (fun (n, v) -> Format.fprintf fmt "%-34s %12d@," n v)
      s.counters
  end;
  if s.gauges <> [] then begin
    Format.fprintf fmt "%-34s %12s@," "gauge" "value";
    List.iter
      (fun (n, v) -> Format.fprintf fmt "%-34s %12.2f@," n v)
      s.gauges
  end;
  if s.histograms <> [] then begin
    Format.fprintf fmt "%-34s %8s %10s %10s %10s %10s %10s@," "histogram"
      "n" "mean" "p50" "p95" "p99" "max";
    List.iter
      (fun (n, (h : summary)) ->
        Format.fprintf fmt "%-34s %8d %10.2f %10.2f %10.2f %10.2f %10.2f@," n
          h.count h.mean h.p50 h.p95 h.p99 h.max)
      s.histograms
  end;
  Format.fprintf fmt "@]"
