#!/usr/bin/env python3
"""Builds and runs the syzygy-slo benchmark.

    python3 perfbench/run.py --workload table3|advise|serve --seed N \\
        --seconds S --trace 0|1 [--inject FAULT]

Run from the root of a checkout. The first call configures and builds
the harness (perfbench/CMakeLists.txt, which pulls in ../src) under
.bench_build/; later calls rebuild only what changed. The harness writes
its scratch files under .bench_build/work/ and removes them when done.

Build output and the harness's progress go to standard error. The last
line of standard output is the harness's JSON result. The exit status is
the harness's: 0 when every output check held, 1 when one failed; 2 for
bad arguments, a missing source tree, or a failed build.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("table3", "advise", "serve")
FAULTS = ("none", "vm-bug", "stale-summary", "fifo-model", "census",
          "oracle-corpus")
BUILD_TIMEOUT_S = 850
# A run's own limit; the measured window plus set-up and the rounds that
# overrun it stay far below this.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no syzygy-slo sources under {ROOT}/src; run from a checkout")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {e}")
            return False
        if done.returncode != 0:
            log(f"build step failed ({done.returncode}): {' '.join(cmd)}")
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--inject", default="none", choices=FAULTS,
                    help="inject a fault its output check must catch "
                         "(self-test only)")
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60 or args.seed < 0:
        ap.error("--seconds must be 1..60 and --seed non-negative")

    if not build():
        return 2

    work = os.path.join(BUILD_ROOT, "work", f"{args.workload}-{os.getpid()}")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--inject", args.inject]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"the harness did not finish within {RUN_TIMEOUT_S} s")
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            raise ValueError("unexpected keys")
    except (IndexError, ValueError) as e:
        log(f"the harness printed no result ({e}); exit {done.returncode}")
        return 2
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
