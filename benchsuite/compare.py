#!/usr/bin/env python3
"""Compare two sets of benchmark runs, workload by workload.

    python3 benchsuite/compare.py BASE.jsonl NEW.jsonl [--spec BENCHMARK.json]

Each file holds the JSONL rows of `main.exe suite --json` runs, one
"workload" row per workload per run (concatenate several runs, each
with its own --seed, into one file).  Runs are paired by seed; both
sets must hold the same seeds for every workload.  For every workload
and metric this prints each side's median and quartiles, how many of
the seed pairs each side won, and a label.

End-to-end metrics are gated by their bounds:

  improved    NEW wins at least 9 pairs in 10 and its median is better
              by more than BASE's own spread (quartile distance / median)
  worse       NEW's median is worse than BASE's by more than the bound
  unresolved  BASE's spread exceeds the bound, unless every NEW run
              reads better (improved) or worse (worse) than every BASE run
  no-worse    otherwise

Per-layer metrics present in both sets (the timings among them) have
no bound; they read improved or worse by the 9-in-10 rule above, in
either direction, and no-change otherwise.

Bounds and directions come from BENCHMARK.json.  Exits 1 if any
end-to-end result is worse, 2 on unusable input.
"""

import argparse
import json
import statistics
import sys


def die(msg):
    print("compare.py: " + msg, file=sys.stderr)
    sys.exit(2)


def load(path):
    """{workload: {seed: row}}"""
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            row = json.loads(line)
            if row.get("kind") != "workload":
                continue
            by_seed = runs.setdefault(row["workload"], {})
            if row["seed"] in by_seed:
                die("%s: %s has seed %d twice" % (path, row["workload"], row["seed"]))
            by_seed[row["seed"]] = row
    return runs


def stats(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return med, q1, q3


def label(pairs, bound, higher):
    """Label one workload x metric from its (base, new) seed pairs.
    bound None: a per-layer metric."""
    better = (lambda a, b: a > b) if higher else (lambda a, b: a < b)
    base = [b for b, _ in pairs]
    new = [n for _, n in pairs]
    med_b, q1_b, q3_b = stats(base)
    med_n = stats(new)[0]
    spread = (q3_b - q1_b) / med_b if med_b else float("inf")
    change = (med_n - med_b) / med_b if med_b else 0.0
    worse_by = -change if higher else change
    new_wins = sum(1 for b, n in pairs if better(n, b))
    base_wins = sum(1 for b, n in pairs if better(b, n))
    if bound is None:
        if new_wins >= 0.9 * len(pairs) and -worse_by > spread:
            verdict = "improved"
        elif base_wins >= 0.9 * len(pairs) and worse_by > spread:
            verdict = "worse"
        else:
            verdict = "no-change"
    elif all(better(n, b) for n in new for b in base):
        verdict = "improved"
    elif all(better(b, n) for n in new for b in base) and worse_by > bound:
        verdict = "worse"
    elif spread > bound:
        verdict = "unresolved"
    elif new_wins >= 0.9 * len(pairs) and -worse_by > spread:
        verdict = "improved"
    elif worse_by > bound:
        verdict = "worse"
    else:
        verdict = "no-worse"
    return verdict, spread, change, base_wins, new_wins


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--spec", default="BENCHMARK.json")
    args = ap.parse_args()
    try:
        with open(args.spec) as f:
            spec = json.load(f)
        base, new = load(args.base), load(args.new)
    except (OSError, ValueError, KeyError) as e:
        die(str(e))

    metrics = [("end_to_end", m) for m in spec["end_to_end"]] + \
              [("per_layer", m) for m in spec["per_layer"]]
    worst = 0
    fmt = "%-17s %-40s %12s %12s %8s %8s %6s  %s"
    print(fmt % ("workload", "metric", "base median", "new median",
                 "change", "spread", "wins", "label"))
    for w in [w["name"] for w in spec["workloads"]]:
        if w not in base or w not in new:
            die("%s missing from %s" % (w, "base" if w not in base else "new"))
        if set(base[w]) != set(new[w]):
            die("%s: the sets' seeds differ: base %s, new %s"
                % (w, sorted(base[w]), sorted(new[w])))
        seeds = sorted(base[w])
        for section, m in metrics:
            name = m["name"]
            try:
                pairs = [(base[w][s][section][name]["value"],
                          new[w][s][section][name]["value"]) for s in seeds]
            except KeyError:
                if section == "end_to_end":
                    die("%s: a run lacks end-to-end metric %s" % (w, name))
                continue  # a per-layer figure only traced runs report
            if section == "per_layer" and not any(b or n for b, n in pairs):
                continue  # a layer this workload does not use
            gated = section == "end_to_end"
            verdict, spread, change, bw, nw = label(
                pairs, m["bound"] if gated else None, m["better"] == "higher")
            b_med, b_q1, b_q3 = stats([b for b, _ in pairs])
            n_med, n_q1, n_q3 = stats([n for _, n in pairs])
            print(fmt % (w, name if gated else name + " (layer)",
                         "%.4g" % b_med, "%.4g" % n_med,
                         "%+.1f%%" % (100 * change), "%.1f%%" % (100 * spread),
                         "%d:%d" % (bw, nw), verdict))
            print(fmt % ("", "", "[%.4g, %.4g]" % (b_q1, b_q3),
                         "[%.4g, %.4g]" % (n_q1, n_q3), "", "", "", ""))
            if gated and verdict == "worse":
                worst = 1
    sys.exit(worst)


if __name__ == "__main__":
    main()
