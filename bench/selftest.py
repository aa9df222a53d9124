"""Self-test of the benchmark's tracing.

Usage (from the repository root): python3 bench/selftest.py [--seconds S]

Runs every workload once with tracing on and checks that

* every traced function the workload is expected to reach (its
  TRACED_CALLS in workloads.py) recorded at least one call,
* the CLI start-up probe recorded import and main times,
* the traced op spans account for the traced wall time (coverage >= 0.95),
* every op passed its check or failed only in the workload's known-defect
  class.

Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import sys

import run
from workloads import WORKLOADS

MIN_COVERAGE = 0.95


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    failures = 0
    for name, work in WORKLOADS.items():
        try:
            result = run.run_workload(name, args.seed, args.seconds, trace=True)
        except run.BenchError as exc:
            print(f"[FAIL] {name}: {exc}")
            failures += 1
            continue
        layers = result["metrics"]
        uncalled = [f for f in work.TRACED_CALLS if layers.get(f"{f}.calls", 0) == 0]
        coverage = layers["trace.op_coverage"]
        problems = []
        if uncalled:
            problems.append(f"no calls recorded for {', '.join(uncalled)}")
        if not (layers["cli.import_s"] > 0 and layers["cli.main_s"] > 0):
            problems.append("the CLI start-up probe recorded no time")
        if coverage < MIN_COVERAGE:
            problems.append(f"op spans cover {coverage:.3f} of the traced wall time")
        if not result["correct"]:
            problems.append("an op failed outside the known-defect class")
        failures += bool(problems)
        print(f"[{'FAIL' if problems else 'PASS'}] {name}: "
              + ("; ".join(problems) if problems else
                 f"{len(work.TRACED_CALLS)} traced functions called, op coverage "
                 f"{coverage:.4f}, overhead {layers['trace.overhead_pct']:.1f}%"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
