#!/usr/bin/env python3
"""Steadiness check: two sets of runs of one build, compared metric by metric.

    python3 nwbench/steadiness.py [--runs 10] [--workloads a,b] [--seconds S]

Each set runs every workload --runs times, each run with its own --seed
(set 1 uses seeds 1..N, set 2 seeds N+1..2N), interleaving the workloads so
host drift spreads over all of them. For every workload and end-to-end
metric it prints each set's median, the spread of each set (distance
between the first and third quartile over the median, as
statistics.quantiles(values, n=4) gives them) and the set-to-set change of
the median, next to the metric's bound from BENCHMARK.json. A metric is
"ok" when both spreads and the size of the set-to-set change, in either
direction, stay within the bound. The "spread" column is that of both sets
together. The human-readable detail lines (pass_s, edit_p95_ms, ...) and
each run's wall time (wall_s) are summarised the same way without a bound.
Exits 1 when any run fails or any metric is not ok.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DETAIL = re.compile(r"^  (\S+)\s+(-?[0-9.eE+-]+|nan|inf) (\S+)$")


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "nwbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    detail = {"wall_s": time.monotonic() - t0}
    lines = p.stdout.rstrip("\n").split("\n")
    if p.returncode != 0:
        return None, {}
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        m = DETAIL.match(line)
        if m:
            detail[m.group(1)] = float(m.group(2))
    return result, detail


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()
    workloads = args.workloads.split(",")

    # sets[s][workload] -> list of (metrics, detail)
    sets = [{w: [] for w in workloads} for _ in range(2)]
    failures = 0
    for s in range(2):
        for i in range(args.runs):
            seed = s * args.runs + i + 1
            for w in workloads:
                result, detail = run_once(w, seed, args.seconds)
                if result is None or not result["correct"]:
                    failures += 1
                    print("run failed: %s seed %d" % (w, seed), flush=True)
                    continue
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                sets[s][w].append((metrics, detail))
                print("set %d seed %2d %-18s wall=%.1fs %s" % (
                    s + 1, seed, w, detail["wall_s"],
                    " ".join("%s=%.6g" % kv for kv in metrics.items())), flush=True)

    bad = failures
    print("\n%-18s %-16s %12s %12s %8s %8s %8s %8s %6s  %s" % (
        "workload", "metric", "median1", "median2", "spread1", "spread2", "spread", "change",
        "bound", "verdict"))
    for w in workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = [r[0][name] for r in sets[0][w]]
            b = [r[0][name] for r in sets[1][w]]
            if len(a) < 2 or len(b) < 2:
                print("%-18s %-16s too few runs" % (w, name))
                bad += 1
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            ok = abs(mb - ma) / ma <= bound and spread(a) <= bound and spread(b) <= bound
            bad += 0 if ok else 1
            print("%-18s %-16s %12.6g %12.6g %8.3f %8.3f %8.3f %+8.3f %6.2f  %s" % (
                w, name, ma, mb, spread(a), spread(b), spread(a + b), (mb - ma) / ma, bound,
                "ok" if ok else "NOT OK"))
        names = sorted(set().union(*(r[1].keys() for r in sets[0][w] + sets[1][w])))
        for name in names:
            a = [r[1][name] for r in sets[0][w] if name in r[1]]
            b = [r[1][name] for r in sets[1][w] if name in r[1]]
            if len(a) < 2 or len(b) < 2 or not statistics.median(a):
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            print("%-18s %-16s %12.6g %12.6g %8.3f %8.3f %8.3f %+8.3f %6s  detail" % (
                w, name[:16], ma, mb, spread(a), spread(b), spread(a + b), (mb - ma) / ma, "-"))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
