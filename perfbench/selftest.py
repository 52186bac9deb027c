#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny input sizes.

    python3 perfbench/selftest.py

For every workload, traced and untraced: the run is clean and emits
exactly the metrics BENCHMARK.json declares.  Then one pinned value per
workload is corrupted, and the run must count a failed operation
(failed_frac > 0, correct false).  Exit code 0 when all of that holds.
"""

from __future__ import annotations

import sys

import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402

CORRUPTED_PIN = {
    "scan": "tiny verify theorem-1 --n 4..5",
    "lemma": "tiny lemma seed=0 part=1",
    "compute": "tiny compute seed=0 part=1",
}


def main() -> int:
    declared = dict(zip((0, 1), run.declared_metrics()))
    failures = []
    for workload in workloads.WORKLOADS:
        for trace, names in declared.items():
            result, record = run.run(workload, 0, 0, trace, size="tiny")
            if not result["correct"] or record["problems"]:
                failures.append(f"{workload} trace={trace}: {record['problems']}")
            if list(result["metrics"]) != list(names):
                failures.append(f"{workload} trace={trace}: emitted {sorted(result['metrics'])}")
        pins = dict(workloads.PINS)
        pins[CORRUPTED_PIN[workload]] = "0" * 64
        result, record = run.run(workload, 0, 0, 0, size="tiny", pins=pins)
        if result["correct"] or not result["failed"] or not record["failed_frac"] > 0:
            failures.append(f"{workload}: a corrupted pin went unnoticed")
    for failure in failures:
        print(f"selftest: {failure}", file=sys.stderr)
    print("selftest: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
