#!/usr/bin/env python3
"""Run one benchmark workload and print its result as one JSON line.

    python3 benchsuite/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the suite with dune, runs
`main.exe suite --only W` (which runs the workload in a child process
and checks its outputs), and prints, as the last line of standard
output, {"correct", "attempted", "failed", "metrics"}: every
end-to-end metric of BENCHMARK.json with --trace 0, every per-layer
metric with --trace 1.  The traced mode spends half of S on the
untraced run (the per-layer counts) and half on the traced one.

Build and suite output go to standard error; rows and spans are kept
under .bench_out/.  Exits 1 after the result line when an output check
fails, and 2 without one when the build, the run or a name check fails.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "benchsuite", "main.exe")
OUT = ".bench_out"
TIMEOUT_S = 170


def die(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die("timed out: " + " ".join(cmd))


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    die("dune not found on PATH")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload %r" % args.workload)

    if run(dune() + ["build", "--root", ".", "./benchsuite/main.exe"], 900) != 0:
        die("build failed")

    os.makedirs(OUT, exist_ok=True)
    tag = "%s-%d-%d" % (args.workload, args.seed, args.trace)
    rows_file = os.path.join(OUT, tag + ".jsonl")
    seconds = args.seconds / 2 if args.trace else args.seconds
    cmd = [EXE, "suite", "--only", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--json", rows_file]
    if args.trace:
        cmd += ["--trace", os.path.join(OUT, tag + ".spans.jsonl")]
    if os.path.exists(rows_file):
        os.remove(rows_file)
    status = run(cmd, TIMEOUT_S)
    if not os.path.exists(rows_file):
        die("suite wrote no result (exit %d)" % status)
    with open(rows_file) as f:
        rows = [json.loads(line) for line in f if line.strip()]
    row = next((r for r in rows if r.get("kind") == "workload"), None)
    if row is None:
        die("no workload row in " + rows_file)

    section = "per_layer" if args.trace else "end_to_end"
    got = row.get(section, {})
    want = [m["name"] for m in spec[section]]
    if sorted(got) != sorted(want):
        die("%s metrics differ from BENCHMARK.json: %s"
            % (section, sorted(set(got) ^ set(want))))
    if not all(math.isfinite(got[name]["value"]) for name in want):
        die("a metric has no value: %s" % {n: got[n]["value"] for n in want})
    correct = bool(row["correct"]) and status == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(row["attempted"]),
        "failed": int(row["failed"]),
        "metrics": {name: {"value": got[name]["value"],
                           "unit": got[name]["unit"]} for name in want},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
