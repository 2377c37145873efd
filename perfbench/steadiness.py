#!/usr/bin/env python3
"""Steadiness of the benchmark: runs each workload several times with a
different seed each time, alternating the workload order between rounds,
and prints for every metric its median, quartiles, the quartile spread as
a share of the median, and its min/max.

    python3 perfbench/steadiness.py [--runs 10] [--workloads study,search]
                                    [--first-seed 1] [--trace 0|1]

Run from the repository root. The quartiles are Python's
statistics.quantiles(values, n=4), the same rule BENCHMARK.json's bounds
are checked with; the spread of every end-to-end metric except setup_s
must stay within its bound. The `detail` metrics are each workload's own
phase timings (analysis_s, warm_epoch_s, query_p99_us, ...).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    wall = time.monotonic() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed (exit %d)" %
                         (workload, seed, done.returncode))
    result = json.loads(lines[-1])
    detail = {}
    if len(lines) >= 2 and lines[-2].startswith('{"detail"'):
        detail = json.loads(lines[-2])["detail"]
    return result, detail, wall


def spread_row(name, values, unit, bound=None):
    values = [float(v) for v in values]
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    share = (q3 - q1) / median if median else float("nan")
    flag = ""
    if bound is not None:
        flag = "ok" if share <= bound / 3 else (
            "within bound" if share <= bound else "OVER BOUND")
    return ("  %-28s %-6s median %12.6g  q1 %12.6g  q3 %12.6g  "
            "iqr/med %6.3f  min %12.6g  max %12.6g  %s" %
            (name, unit, median, q1, q3, share, min(values), max(values),
             flag))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; default: all in BENCHMARK.json")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    samples = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        seed = args.first_seed + i
        for w in order:
            result, detail, wall = run_once(w, seed, spec["run_seconds"],
                                            args.trace)
            samples[w].append((result, detail, wall))
            print("%-8s seed %-4d wall %6.1fs correct %s attempted %d "
                  "failed %d" % (w, seed, wall, result["correct"],
                                 result["attempted"], result["failed"]),
                  flush=True)

    for w in workloads:
        runs = samples[w]
        print("\n%s: %d runs, seeds %d..%d" %
              (w, len(runs), args.first_seed, args.first_seed + args.runs - 1))
        correct = all(r["correct"] for r, _, _ in runs)
        shares = sorted({r["failed"] / r["attempted"] for r, _, _ in runs})
        print("  correct in every run: %s; failed share(s): %s" %
              (correct, shares))
        for name in runs[0][0]["metrics"]:
            unit = runs[0][0]["metrics"][name]["unit"]
            values = [r["metrics"][name]["value"] for r, _, _ in runs]
            bound = bounds.get(name) if name != "setup_s" else None
            print(spread_row(name, values, unit, bound))
        for name in sorted(runs[0][1]):
            values = [d[name] for _, d, _ in runs if name in d]
            print(spread_row("detail:" + name, values, ""))
        print(spread_row("wall_s (incl. build check)",
                         [wall for _, _, wall in runs], "s"))


if __name__ == "__main__":
    main()
