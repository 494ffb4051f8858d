#!/usr/bin/env python3
"""Shows that each of the benchmark's output checks fails when its
property breaks.

    python3 perfbench/selftest.py [--seed N]

Runs the benchmark once clean, where every check must hold, then once per
injected fault, where the named check must fail (exit status 1,
"correct": false, and the check's name in the harness's report):

  vm-bug          RunOptions::InjectVmBug makes the VM mis-charge loads;
                  walker/VM parity on the base builds must catch it.
  stale-summary   IncrementalOptions::InjectStaleSummary serves stale
                  summaries after the edits; warm-vs-fresh advice must
                  catch it.
  fifo-model      the reference cache model evicts FIFO instead of LRU;
                  the CacheSim-vs-reference check must catch it.
  census          the paper's Table 1 row is perturbed; the census check
                  must catch it.
  oracle-corpus   the serve oracle runs over a changed TU set; the
                  served-vs-one-shot check must catch it.

Exit status 0 when every case behaves as stated.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# (fault, workload, check that must fail; None = every check must hold)
CASES = [
    ("none", "table3", None),
    ("vm-bug", "table3", "engine-parity"),
    ("stale-summary", "advise", "warm-vs-fresh"),
    ("fifo-model", "table3", "cachesim-reference"),
    ("census", "advise", "table1-census"),
    ("oracle-corpus", "serve", "served-vs-oneshot"),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    ok = True
    for fault, workload, check in CASES:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(args.seed), "--seconds", "1",
               "--trace", "0", "--inject", fault]
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, cwd=ROOT)
        failed = sorted(set(re.findall(r"CHECK FAILED \[([a-z0-9-]+)\]",
                                       done.stderr)))
        try:
            correct = json.loads(done.stdout.strip().splitlines()[-1])[
                "correct"]
        except (IndexError, ValueError, KeyError):
            correct = None
        if check is None:
            good = done.returncode == 0 and correct is True and not failed
        else:
            good = done.returncode == 1 and correct is False and \
                check in failed
        ok &= good
        print(f"{'PASS' if good else 'FAIL'}  inject {fault:14} "
              f"exit {done.returncode}  correct {correct}  "
              f"failed checks {failed or '-'}")
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
