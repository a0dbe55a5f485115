#!/usr/bin/env python3
"""Check that the benchmark's end-to-end metrics are steady.

    python3 perfbench/steadiness.py [--runs 10] [--sets 1]
        [--workloads a,b] [--seconds S] [--seed-base 1] [--json OUT]

Runs every workload of BENCHMARK.json --runs times per set, each run
with its own --seed, and prints per metric the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median next to
the metric's bound. A spread above a third of the bound is flagged.
With --sets 2 or more it also prints how much worse each later set's
median is than the first set's, which must stay within the bound.
Exits 1 when a run fails, reports failed operations, or a spread or
a drift exceeds its bound (setup_s is exempt from the spread check).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("%s seed %d: exit %d" %
                         (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def worse_by(first, later, better):
    if better == "lower":
        return (later - first) / first
    return (first - later) / first


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--json", help="write every measured value here")
    args = ap.parse_args()

    metrics = bench["end_to_end"]
    values = {}  # (set, workload, metric) -> [value per run]
    ok = True
    for s in range(args.sets):
        for workload in args.workloads.split(","):
            for i in range(args.runs):
                seed = args.seed_base + 1000 * s + i
                result = run_once(workload, seed, args.seconds)
                if not result["correct"] or result["failed"] != 0:
                    print("%s seed %d: correct=%s failed=%d/%d" %
                          (workload, seed, result["correct"],
                           result["failed"], result["attempted"]))
                    ok = False
                for m in metrics:
                    values.setdefault((s, workload, m["name"]), []).append(
                        result["metrics"][m["name"]]["value"])

    print("%-17s %-17s %3s %14s %14s %14s %8s %6s  %s" %
          ("workload", "metric", "set", "median", "q1", "q3", "spread",
           "bound", "verdict"))
    for workload in args.workloads.split(","):
        for m in metrics:
            first = None
            for s in range(args.sets):
                vals = values[(s, workload, m["name"])]
                med, q1, q3, sp = spread(vals)
                verdict = "steady" if sp <= m["bound"] / 3 else (
                    "within bound" if sp <= m["bound"] else "TOO NOISY")
                if m["name"] == "setup_s":
                    verdict += " (exempt)"
                elif sp > m["bound"]:
                    ok = False
                if first is None:
                    first = med
                else:
                    drift = worse_by(first, med, m["better"])
                    verdict += "; %+.1f%% vs set 0" % (100 * drift)
                    if drift > m["bound"]:
                        verdict += " DRIFT"
                        ok = False
                print("%-17s %-17s %3d %14.6g %14.6g %14.6g %7.1f%% %5.0f%%"
                      "  %s" % (workload, m["name"], s, med, q1, q3,
                                100 * sp, 100 * m["bound"], verdict))
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"%d/%s/%s" % k: v for k, v in values.items()}, f,
                      indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
