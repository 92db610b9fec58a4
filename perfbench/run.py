#!/usr/bin/env python3
"""Builds and runs the LIGHTOR end-to-end benchmark.

    python3 perfbench/run.py --workload recorded_pipeline --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --quick      # self-test of all workloads

Run from the root of a checkout. The benchmark compiles the repository's
libraries from source into the build directory ($CARGO_TARGET_DIR, else
.bench_build), then runs `lightor_perfbench`, whose last line of stdout
is the JSON result. Build output goes to stderr. The exit code is the
benchmark's: 0 only when every operation succeeded and every output was
correct.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("recorded_pipeline", "viewer_wire", "live_channels")
RUN_TIMEOUT_S = 175


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build(out):
    """Configures (once) and builds the benchmark; returns the binary."""
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "lightor_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out, "lightor_perfbench")


def run(binary, workload, seed, seconds, trace, quick=False, capture=False):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--dir", os.path.join(build_dir(), "work")]
    if quick:
        cmd.append("--quick")
    return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                          stdout=subprocess.PIPE if capture else None)


def self_test(binary):
    """Quick runs of every workload in both modes; checks the result
    lines against BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run(binary, workload, 1, 1, trace, quick=True,
                       capture=True)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = None
            good = (proc.returncode == 0 and result is not None and
                    result["correct"] and result["failed"] == 0 and
                    result["attempted"] > 0 and
                    sorted(result["metrics"]) == sorted(names[trace]))
            print("%-18s trace=%d  %s" % (workload, trace,
                                          "ok" if good else "FAILED"))
            ok = ok and good
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="self-test: short runs of every workload")
    args = parser.parse_args()
    if not args.quick and args.workload is None:
        parser.error("--workload is required")
    try:
        binary = build(build_dir())
    except (subprocess.CalledProcessError, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    if args.quick:
        return 0 if self_test(binary) else 1
    try:
        return run(binary, args.workload, args.seed, args.seconds,
                   args.trace).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
