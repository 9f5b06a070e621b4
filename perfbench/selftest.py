"""Self-test of the benchmark's correctness check.

Runs a short ``stream-elasticity2d`` loop twice on the same seed: once
as is, once with one answer scaled by ``1 + 1e-3`` before it is
checked.  The check must pass every operation of the first loop and
count exactly the corrupted operation of the second as failed.

Run from the repository root::

    python3 perfbench/selftest.py

Exit code 0 when the corrupted answer is caught, 1 otherwise.
"""

from __future__ import annotations

import sys
import time
from dataclasses import replace

import run


def main() -> int:
    run._load_source()
    from workloads import WORKLOADS, Runner

    wl = replace(WORKLOADS["stream-elasticity2d"], min_ops=4, setup_reps=1)
    # operations 0 and 1 are the discarded warm-ups, 2 the timed set-up,
    # 3 the first timed solve
    corrupt = 3
    tallies = []
    for corrupt_op in (None, corrupt):
        runner = Runner(wl, seed=7, corrupt_op=corrupt_op)
        runner.run(0.0, time.perf_counter() + 120.0)
        tallies.append(runner.tally["public"])
    clean, bad = tallies
    print(f"clean run: {clean.failed} failed of {clean.attempted}; "
          f"corrupted run: {bad.failed} failed of {bad.attempted} "
          f"(operation {corrupt} corrupted)")
    ok = (clean.failed == 0 and bad.failed == 1
          and bad.attempted == clean.attempted)
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
