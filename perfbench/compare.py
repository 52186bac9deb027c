#!/usr/bin/env python3
"""Compare benchmark records of two commits, metric by metric.

    python3 perfbench/compare.py --base perfbench/baseline-py.json \\
        --new .perfbench_out/*-full-seed*-trace0.json

Each file holds one record written by run.py, or a list of them (as the
committed baseline does).  For every workload and end-to-end metric it
prints the median of each side, the change, and the bound from
BENCHMARK.json, and flags a change worse than the bound.  Records taken
on different backends, or at different sizes or run lengths, are refused:
a pure-Python figure says nothing about the compiled kernel.
Exit code 1 when a metric regressed past its bound, 2 when refused.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict

from run import ROOT


def _load(paths) -> list[dict]:
    out = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        out.extend(doc if isinstance(doc, list) else [doc])
    return [r for r in out if r["trace"] == 0]


def _settings(records) -> set[tuple]:
    return {(r["env"]["backend"], r["size"], r["seconds"]) for r in records}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)
    base, new = _load(args.base), _load(args.new)
    settings = _settings(base) | _settings(new)
    if len(settings) != 1:
        print(f"compare: refusing to compare mixed (backend, size, seconds): "
              f"{sorted(settings)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    values = defaultdict(lambda: ([], []))
    for side, records in enumerate((base, new)):
        for r in records:
            for name, m in r["result"]["metrics"].items():
                values[r["workload"], name][side].append(m["value"])
    regressed = False
    print(f"{'workload':<9} {'metric':<14} {'base':>12} {'new':>12} {'change':>8} {'bound':>6}")
    for workload in sorted({w for w, _ in values}):
        for metric in spec["end_to_end"]:
            b, n = values[workload, metric["name"]]
            if not b or not n:
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            change = (mn - mb) / mb
            worse = change > metric["bound"] if metric["better"] == "lower" else (
                -change > metric["bound"])
            regressed |= worse
            print(f"{workload:<9} {metric['name']:<14} {mb:>12.4g} {mn:>12.4g} "
                  f"{change:>+8.1%} {metric['bound']:>6.2f}{'  WORSE' if worse else ''}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
