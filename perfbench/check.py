#!/usr/bin/env python3
"""Self-checks of the benchmark, built on perfbench/run.py.

    python3 perfbench/check.py steady [--runs 10] [--seconds S]
                                      [--workloads matrix,serve]
                                      [--first-seed 101] [--save FILE]
    python3 perfbench/check.py compare FIRST.json SECOND.json
    python3 perfbench/check.py holdout [--seed 7] [--seconds 10]
    python3 perfbench/check.py threads [--runs 5]

steady   runs each workload --runs times, one seed each, and prints per
         end-to-end metric the median, the quartiles, the interquartile
         and min-max spreads as shares of the median, and the metric's
         bound from BENCHMARK.json (S defaults to its run_seconds). A
         spread is "steady" below a third of the bound. The diagnostics
         each run prints (median-based rate, p50, plain mean and p99 of
         unit times, minimum and median set-up time) get the same
         treatment, for comparison with the gated statistics. --save
         writes every run's end-to-end values to FILE (JSON).
compare  reads two files written by steady --save and prints, per
         workload and metric, how far the second set's median moved from
         the first's, as a share of it; a move in the worse direction by
         more than the metric's bound fails.
holdout  runs every workload untraced and traced at the hold-out seed,
         where no digest is pinned, and fails unless every output check
         passes.
threads  times one fixed section of matrix cells through the runner at
         1 and 4 workers, --runs times each, and prints both spreads.
Exits 1 when a check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("matrix", "adversary", "serve", "census")
HOLDOUT_SEED = 7


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace=0):
    """One run.py invocation: (result or None, diags, exit code, lines)."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    lines = proc.stdout.splitlines()
    diags = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 3 and parts[0] == "diag" and parts[1] != "kind":
            diags[parts[1]] = float(parts[2])
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return result, diags, proc.returncode, lines


def spread_row(name, values, bound=None):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    iqr = (q3 - q1) / q2
    rng = (max(values) - min(values)) / q2
    verdict = ""
    if bound is not None:
        verdict = "steady" if iqr < bound / 3 else "NOISY"
    return "  %-14s median %-12.6g q1 %-12.6g q3 %-12.6g iqr %6.2f%%  " \
           "min-max %6.2f%%  bound %s %s" % (
               name, q2, q1, q3, 100 * iqr, 100 * rng,
               "-" if bound is None else "%g" % bound, verdict)


def steady(args):
    spec = bench_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    ok = True
    saved = {}
    for workload in workloads:
        values = {}
        diags = {}
        for r in range(args.runs):
            result, diag, code, _ = run_once(workload, args.first_seed + r,
                                             args.seconds)
            if result is None or not result["correct"] or code != 0:
                print("%s seed %d: failed" % (workload, args.first_seed + r))
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name, v in diag.items():
                diags.setdefault(name, []).append(v)
        saved[workload] = values
        print("%s: %d runs of %gs" % (workload, args.runs, args.seconds))
        for name in bounds:
            if len(values.get(name, [])) < 2:
                continue
            row = spread_row(name, values[name], bounds[name])
            print(row)
            ok = ok and not row.endswith("NOISY")
        for name, vals in sorted(diags.items()):
            if len(vals) >= 2:
                print(spread_row("diag " + name, vals))
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"seconds": args.seconds, "workloads": saved}, f,
                      indent=1)
    return 0 if ok else 1


def compare(args):
    metrics = {m["name"]: m for m in bench_spec()["end_to_end"]}
    sets = []
    for path in (args.first, args.second):
        with open(path) as f:
            sets.append(json.load(f)["workloads"])
    ok = True
    for workload in sets[0]:
        if workload not in sets[1]:
            continue
        for name, m in metrics.items():
            a = sets[0][workload].get(name)
            b = sets[1][workload].get(name)
            if not a or not b:
                continue
            first, second = statistics.median(a), statistics.median(b)
            change = (second - first) / first
            worse = change if m["better"] == "lower" else -change
            verdict = "ok" if worse <= m["bound"] else "WORSE"
            ok = ok and verdict == "ok"
            print("%-9s %-12s median %-12.6g -> %-12.6g %+7.2f%%  bound %g "
                  "%s" % (workload, name, first, second, 100 * change,
                          m["bound"], verdict))
    return 0 if ok else 1


def holdout(args):
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, _, code, lines = run_once(workload, args.seed,
                                              args.seconds, trace)
            good = result is not None and result["correct"] and code == 0
            ok = ok and good
            print("%-9s seed %d trace %d: %s (%s units)" % (
                workload, args.seed, trace, "pass" if good else "FAIL",
                result["attempted"] if result else "?"))
            if not good:
                print("\n".join(l for l in lines if l.startswith("FAILED")))
    return 0 if ok else 1


def threads(args):
    subprocess.run([sys.executable, RUN, "--workload", "matrix", "--seconds",
                    "0.1"], cwd=ROOT, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL)  # builds
    binary = os.path.join(ROOT, ".bench_build", "perfbench", "perfbench")
    for t in (1, 4):
        values = []
        for _ in range(args.runs):
            out = subprocess.run([binary, "--probe", "pool", "--threads",
                                  str(t)], stdout=subprocess.PIPE, text=True)
            values.append(json.loads(out.stdout.splitlines()[-1])
                          ["metrics"]["section_s"]["value"])
        print(spread_row("section_s@%dt" % t, values))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("steady")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float,
                   default=bench_spec()["run_seconds"])
    p.add_argument("--workloads", default="")
    p.add_argument("--first-seed", type=int, default=101)
    p.add_argument("--save", default="")
    p = sub.add_parser("compare")
    p.add_argument("first")
    p.add_argument("second")
    p = sub.add_parser("holdout")
    p.add_argument("--seed", type=int, default=HOLDOUT_SEED)
    p.add_argument("--seconds", type=float, default=10)
    p = sub.add_parser("threads")
    p.add_argument("--runs", type=int, default=5)
    args = parser.parse_args()
    commands = {"steady": steady, "compare": compare, "holdout": holdout,
                "threads": threads}
    return commands[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
