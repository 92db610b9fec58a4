#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 perfbench/spread.py                      # 10 seeds, all workloads
    python3 perfbench/spread.py --workloads viewer_wire --seeds 1-5
    python3 perfbench/spread.py --trace 1 --seeds 1-3

For every workload and metric it prints the median over the runs, the
first and third quartiles (statistics.quantiles, n=4) and the spread:
(Q3 - Q1) / median. README.md's reference figures come from this script.
Runs are sequential; each is a full `perfbench/run.py` invocation.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("recorded_pipeline", "viewer_wire", "live_channels")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            seconds = json.load(f)["run_seconds"]

    ok = True
    for workload in args.workloads.split(","):
        values, shares = {}, set()
        for seed in parse_seeds(args.seeds):
            started = time.monotonic()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                print("%s seed %d: no result (exit %d)" %
                      (workload, seed, proc.returncode))
                ok = False
                continue
            if proc.returncode != 0 or not result["correct"]:
                ok = False
            shares.add(result["failed"] / result["attempted"])
            print("%s seed %d: exit %d, correct %s, %d attempted, %d failed, "
                  "%.1f s" % (workload, seed, proc.returncode,
                              result["correct"], result["attempted"],
                              result["failed"], time.monotonic() - started),
                  flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(
                    (metric["value"], metric["unit"]))
        print("\n%s (%d runs)" % (workload, len(parse_seeds(args.seeds))))
        print("  %-38s %14s %14s %14s %8s" %
              ("metric", "median", "q1", "q3", "spread"))
        for name, pairs in values.items():
            v = [x for x, _ in pairs]
            med = statistics.median(v)
            q1, _, q3 = (statistics.quantiles(v, n=4) if len(v) > 1
                         else (v[0], v[0], v[0]))
            spread = (q3 - q1) / med if med else float("nan")
            print("  %-38s %14.6g %14.6g %14.6g %8.4f  %s" %
                  (name, med, q1, q3, spread, pairs[0][1]))
        print("  failed share of attempted: %s\n" % sorted(shares))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
