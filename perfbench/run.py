#!/usr/bin/env python3
"""zagreb benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 40 --trace 0

Run from anywhere; the program under test is the zagreb package in the
src/ directory next to perfbench/, on whichever kernel it selects
(zagreb.BACKEND).  Workloads are described in perfbench/workloads.py,
metric names and units are declared in BENCHMARK.json.

--trace 0 measures the end-to-end metrics with nothing wrapped:
  wall_s        one pass over the workload (sum of per-unit fastest times)
  graphs_per_s  graphs covered by one pass / wall_s
  setup_s       median time for a fresh interpreter to `import zagreb`,
                over probes spread across the measured window
  peak_rss_mib  peak resident memory of this (fresh) process
A unit's fastest sample is taken rather than its median because a
shared host's speed drifts: the same pure-Python loop runs up to 2x
slower for stretches of seconds to minutes.  A slow stretch that covers
part of a run moves the median but not the fastest sample.  The record
keeps every sample.
--trace 1 measures the same passes untraced, then runs one more pass
with every module entry point wrapped (perfbench/tracer.py) and reports
per-pass layer counts and self times, plus trace.overhead_s.

Every output is checked against pinned values or invariants while it is
measured.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; a fuller record (environment,
samples, problems) goes to .perfbench_out/ in the checkout, spans of a
traced run beside it.  Exit code 1 when an output was wrong, 2 when the
benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 21


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """(end_to_end, per_layer) metric name -> unit, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def environment() -> dict:
    import zagreb

    cpu = None
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # a plain source checkout
    return {
        "backend": zagreb.BACKEND,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
    }


class SetupProbes:
    """Wall times of fresh interpreters that only `import zagreb`.

    Called between units, it starts the probes that are due, so that they
    spread evenly over the measured window instead of sampling one moment
    of a machine whose speed drifts.
    """

    def __init__(self, seconds: float, count: int = SETUP_PROBES):
        self.count, self.seconds = count, seconds
        self.start = time.perf_counter()
        self.times: list[float] = []
        self.argv = [sys.executable, "-c",
                     f"import sys; sys.path.insert(0, {str(SRC)!r}); import zagreb"]

    def _probe(self) -> None:
        t0 = time.perf_counter()
        subprocess.run(self.argv, cwd=ROOT, check=True)
        self.times.append(time.perf_counter() - t0)

    def __call__(self) -> None:
        elapsed = time.perf_counter() - self.start
        due = (int(elapsed / self.seconds * self.count) + 1
               if elapsed < self.seconds else self.count)
        while len(self.times) < due:
            self._probe()

    def median(self) -> float:
        while len(self.times) < self.count:
            self._probe()
        return statistics.median(self.times)


def kernel_agreement(cases) -> tuple[str, int, list[str]]:
    """Compiled and pure kernels must return identical scan tuples."""
    from zagreb import _corepy

    try:
        from zagreb import _corecy
    except ImportError:
        return "skipped: only the py kernel is built", 0, []
    problems = [
        f"kernel: backends disagree at n={n} m={m}"
        for n, m in cases
        if _corepy.scan_extremal(n, m, "em1") != _corecy.scan_extremal(n, m, "em1")
    ]
    return f"compared {len(cases)} scans", len(cases), problems


def kernel_dfs(calls) -> tuple[float, float, list[str]]:
    """Bare DFS time over the traced kernel calls, with a no-op leaf.

    Returns (seconds, largest first-edge slice's share of the leaves of
    the biggest call, problems).  The leaf counts must match the traced
    calls exactly.
    """
    from zagreb import _kernel

    noop = lambda mask: None  # noqa: E731
    biggest = max(calls, key=lambda c: c[4], default=None)
    dfs_s, share, problems = 0.0, 0.0, []
    for call in calls:
        n, m, lo, hi, leaves = call
        if call is biggest and m > 0:
            top = n * (n - 1) // 2 if hi is None else hi
            ranges = [(i, i + 1) for i in range(lo, top)]
        else:
            ranges = [(lo, hi)]
        counts = []
        for a, b in ranges:
            t0 = time.perf_counter()
            counts.append(_kernel.visit_connected(n, m, a, b, noop))
            dfs_s += time.perf_counter() - t0
        if sum(counts) != leaves:
            problems.append(f"kernel: n={n} m={m} visited {sum(counts)} != {leaves}")
        if call is biggest and leaves:
            share = max(counts) / leaves
    return dfs_s, share, problems


def run(workload, seed, seconds, trace, size="full", pins=None) -> tuple[dict, dict]:
    """Run one workload; return (result line, full record)."""
    import workloads
    from tracer import Tracer

    end_to_end, per_layer = declared_metrics()
    OUT.mkdir(exist_ok=True)
    env = environment()
    units = workloads.build(
        workload, size, seed, OUT, workloads.PINS if pins is None else pins
    )
    probes = SetupProbes(seconds)
    meas = workloads.measure(units, seconds, probes if trace == 0 else lambda: None)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "size": size, "env": env}

    if trace == 0:
        values = {
            "wall_s": meas.wall_s,
            "graphs_per_s": meas.pass_graphs / meas.wall_s,
            "setup_s": probes.median(),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        record["setup_samples"] = probes.times
        units_of = end_to_end
    else:
        tracer = Tracer(workload)
        tracer.install()
        try:
            traced = [(unit, *workloads.timed(unit)) for unit in units]
        finally:
            tracer.uninstall()
        for unit, _, out in traced:
            meas.check(unit, out)
        dfs_s, share, problems = kernel_dfs(tracer.kernel_calls)
        meas.tally(1, problems)
        values = tracer.layer_metrics(dfs_s, share)
        values["trace.overhead_s"] = sum(dt for _, dt, _ in traced) - meas.wall_s
        tracer.dump(OUT / f"{workload}-{size}.spans.json")
        record["spans"] = len(tracer.start)
        units_of = per_layer

    if workload == "scan":
        status, compared, problems = kernel_agreement(workloads.SIZES[size].agreement_cases)
        record["kernel_agreement"] = status
        meas.tally(compared, problems)

    if set(values) != set(units_of):
        missing = sorted(set(units_of) - set(values))
        extra = sorted(set(values) - set(units_of))
        raise RuntimeError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    result = {
        "correct": meas.failed == 0,
        "attempted": meas.attempted,
        "failed": meas.failed,
        "metrics": {k: {"value": values[k], "unit": units_of[k]} for k in units_of},
    }
    record.update(
        result=result,
        failed_frac=meas.failed / meas.attempted,
        problems=meas.problems,
        samples=meas.samples,
        pass_graphs=meas.pass_graphs,
    )
    with open(OUT / f"{workload}-{size}-seed{seed}-trace{trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return result, record


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "zagreb" / "__init__.py").is_file():
        print(f"perfbench: no zagreb package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}, "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result, record = run(args.workload, args.seed, args.seconds, args.trace)
    for problem in dict.fromkeys(record["problems"]):
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
