#!/usr/bin/env python3
"""Steadiness check of the repository benchmark.

    python3 perfbench/steadiness.py [--runs 10] [--sets 2] [--seconds S]
                                    [--workloads a,b] [--first-seed 1]
                                    [--trace 0|1]

Runs `--sets` sets of `--runs` runs of every workload (each run with its
own seed), all of the same code, and prints per workload and end-to-end
metric: each set's median, first and third quartile
(statistics.quantiles(n=4)), the spread (q3 - q1) / median against the
metric's bound from BENCHMARK.json, and the drift of each later set's
median from the first set's in the metric's worse direction.  A spread
above its bound (setup_s excepted), a drift above the bound, or failed
operations making up different shares of attempted ones in two runs are
marked FAIL, and the script exits 1.  The raw results are written to
.bench_build/perfbench/steadiness.json.

--trace 1 runs the traced variant instead and only checks that every
per-layer metric is printed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed (rc %d): %s" % (proc.returncode, " ".join(cmd)))
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    names = {m["name"] for m in metrics}

    results = {w: [[] for _ in range(args.sets)] for w in workloads}
    seed = args.first_seed
    for s in range(args.sets):
        for _ in range(args.runs):
            for w in workloads:
                r = run_once(w, seed, seconds, args.trace)
                if set(r["metrics"]) != names or not r["correct"]:
                    sys.exit("%s seed %d: incorrect run or metric set %s"
                             % (w, seed, sorted(r["metrics"])))
                results[w][s].append(r)
                print("set %d %s seed %d: attempted %d failed %d" % (
                    s + 1, w, seed, r["attempted"], r["failed"]),
                    file=sys.stderr)
            seed += 1

    os.makedirs(os.path.join(ROOT, ".bench_build", "perfbench"),
                exist_ok=True)
    with open(os.path.join(ROOT, ".bench_build", "perfbench",
                           "steadiness.json"), "w") as f:
        json.dump(results, f, indent=1)
    if args.trace:
        print("every traced run printed all %d per-layer metrics" % len(names))
        return 0

    ok = True
    print("%-10s %-19s %5s %12s %12s %12s %7s %6s %7s" % (
        "workload", "metric", "set", "median", "q1", "q3", "spread",
        "bound", "drift"))
    for w in workloads:
        for m in metrics:
            first_median = None
            for s, runs in enumerate(results[w]):
                values = [r["metrics"][m["name"]]["value"] for r in runs]
                q1, q2, q3 = statistics.quantiles(values, n=4)
                med = statistics.median(values)
                spread = (q3 - q1) / med
                verdict = ""
                if m["name"] != "setup_s" and spread > m["bound"]:
                    verdict = " FAIL spread"
                drift = 0.0
                if first_median is None:
                    first_median = med
                else:
                    drift = (med - first_median) / first_median
                    if m["better"] == "higher":
                        drift = -drift
                    if drift > m["bound"]:
                        verdict += " FAIL drift"
                ok = ok and not verdict
                print("%-10s %-19s %5d %12.6g %12.6g %12.6g %7.4f %6.3f %7.4f%s"
                      % (w, m["name"], s + 1, med, q1, q3, spread,
                         m["bound"], drift, verdict))
        shares = {r["failed"] / r["attempted"]
                  for runs in results[w] for r in runs}
        print("%s: failed/attempted share in every run: %s%s" % (
            w, sorted(shares), "" if len(shares) == 1 else " FAIL"))
        ok = ok and len(shares) == 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
