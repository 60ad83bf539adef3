#!/usr/bin/env python3
"""Build and run the benchmark once.

    python3 perfbench/run.py --workload matrix --seed 1 --seconds 25 --trace 0

--seconds defaults to run_seconds in BENCHMARK.json, the run length the
bounds there were set on.
Builds the library and the perfbench binary from source into
.bench_build/perfbench (a no-op when up to date; the build log goes to
stderr), runs one workload, and ends its standard output with the
JSON result line of the binary. With --trace 1 it also times the census
scan with the selected kernel table and with SETLIB_FORCE_SCALAR=1, in
alternating processes, and adds the ratio as sched.simd.speedup.
Exits non-zero when the build fails or an output check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("matrix", "adversary", "serve", "census")
SIMD_ROUNDS = 3


def build():
    """Configures once and builds; returns False when either step fails."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", "3"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode:
            return False
    return True


def run_binary(args, env=None):
    """Runs the perfbench binary; returns (exit code, output lines)."""
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                          text=True, env=env)
    return proc.returncode, proc.stdout.splitlines()


def simd_pairs_per_s(seed, force_scalar):
    env = dict(os.environ)
    env.pop("SETLIB_FORCE_SCALAR", None)
    if force_scalar:
        env["SETLIB_FORCE_SCALAR"] = "1"
    code, lines = run_binary(["--probe", "simd", "--seed", str(seed)], env)
    if code != 0 or not lines:
        return None
    return json.loads(lines[-1])["metrics"]["pairs_per_s"]["value"]


def run_seconds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["run_seconds"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = run_seconds()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2

    bench_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        bench_args += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    code, lines = run_binary(bench_args)
    if not lines or not lines[-1].startswith("{"):
        print("\n".join(lines))
        print("perfbench: no result line", file=sys.stderr)
        return code or 2
    result = json.loads(lines[-1])
    print("\n".join(lines[:-1]))

    if args.trace:
        # Alternate the two kernel tables over separate processes so host
        # drift hits both alike; the ratio is of their medians.
        runs = {False: [], True: []}
        for _ in range(SIMD_ROUNDS):
            for scalar in (False, True):
                runs[scalar].append(simd_pairs_per_s(args.seed, scalar))
        if None in runs[False] + runs[True]:
            print("FAILED: the SIMD census probe did not run")
            result["correct"] = False
            result["failed"] += 1
            active = scalar = speedup = 0.0
        else:
            active = statistics.median(runs[False])
            scalar = statistics.median(runs[True])
            speedup = active / scalar
        print("layer sched.simd.speedup %.6g ratio (%.6g vs %.6g pairs/s "
              "forced scalar)" % (speedup, active, scalar))
        result["metrics"]["sched.simd.speedup"] = {"value": speedup,
                                                   "unit": "ratio"}
        code = 0 if result["correct"] else 1

    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
