#!/usr/bin/env python3
"""Runs each workload repeatedly and prints each metric's spread.

    python3 perfbench/steady.py [--runs 10] [--seconds S] [--trace 0|1]
        [--workloads table3,advise,serve] [--first-seed 1] [--save FILE]

Each run of a workload gets its own seed (first-seed, first-seed+1, ...).
For every metric it prints the median, the first and third quartiles (as
Python's statistics.quantiles(values, n=4) gives them) and the spread,
(Q3 - Q1) / median. For end-to-end metrics it also prints the metric's
bound from BENCHMARK.json and whether the spread is below a third of it,
the margin the bounds are derived with; setup_s is excluded from the
spread rule, as the bound there limits drift between medians only. It
also prints each workload's share of failed operations, which must be
the same in every run. Exit status 1 when a run fails or a spread misses
its margin.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(lines[-1])


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--save", help="write every run's result to this JSON file")
    args = ap.parse_args()

    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    ok = True
    saved = {}
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            try:
                results.append(run_once(workload, seed, args.seconds,
                                        args.trace))
            except RuntimeError as e:
                print(f"FAILED: {e}")
                ok = False
        saved[workload] = results
        if not results:
            continue
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        correct = all(r["correct"] for r in results)
        ok &= correct and len(shares) == 1
        print(f"\n== {workload}: {len(results)} runs, {args.seconds} s, "
              f"trace {args.trace}, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, correct {correct}, "
              f"failed share {shares}")
        print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = m.get("bound")
            verdict = ""
            if bound is not None and m["name"] != "setup_s":
                steady = spread < bound / 3
                ok &= steady
                verdict = "ok" if steady else "WIDE"
            print(f"{m['name']:34} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {'' if bound is None else bound:>6} "
                  f"{verdict}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
