"""Exhaustive scans over small connected graphs.

Enumeration is over labeled graphs (edge subsets of K_n), not
isomorphism classes: extremal values are unchanged by duplicate
isomorphs, and labeled generation needs no canonical augmentation.
Witness sets are small, so only they get canonicalized.  Hard caps keep
the worst case at desk scale; the one gated case (n=9 at c=3, about
6e8 subsets) sits behind allow_large.

A scan can fan out over worker processes, each owning a slice of the
first-edge indices.  The tracker merge is associative and the slices are
folded in index order, so the report is identical at any worker count
(apart from wall time).
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import _kernel
from .canon import canonical_form
# perfbench/tracer.py wraps _from_edges in each module that imports it
from .graph import GraphError, _from_edges  # noqa: F401
from .graph6 import encode_mask, graph_of_mask
from .indices import INDEX_IDS

HARD_CAP = 9
TRICYCLIC_CAP = 8


@dataclass(frozen=True)
class EnumSpec:
    """Which graphs to visit: connected, n vertices, m = n-1+c edges."""

    n: int
    c: int
    dedup: bool = True
    allow_large: bool = False
    workers: int = 1

    def __post_init__(self):
        if self.c not in (0, 1, 2, 3):
            raise GraphError(f"cyclomatic number must be 0..3, got {self.c}")
        if self.n < 1:
            raise GraphError(f"need at least one vertex, got n={self.n}")
        full = self.n * (self.n - 1) // 2
        if self.m > full:
            raise GraphError(
                f"no connected graph has n={self.n} and c={self.c}: "
                f"that needs m={self.m} edges but K_{self.n} has only {full}"
            )
        if self.n > HARD_CAP:
            raise GraphError(f"enumeration is capped at n={HARD_CAP}, got n={self.n}")
        if self.c == 3 and self.n > TRICYCLIC_CAP and not self.allow_large:
            raise GraphError(
                f"n={self.n} at c=3 means roughly C(36,11) ~ 6e8 edge subsets; "
                f"pass allow_large=True (CLI: --allow-large) to run it anyway"
            )
        if self.workers < 1:
            raise GraphError(f"workers must be >= 1, got {self.workers}")

    @property
    def m(self) -> int:
        return self.n - 1 + self.c


@dataclass(frozen=True)
class ExtremalReport:
    """Outcome of one extremal scan, with witnesses for both extremes.

    With dedup the witness lists are sorted canonical forms and the class
    counts are exact; without it they are the labeled graphs in
    enumeration order and the class counts are None.
    """

    n: int
    c: int
    m: int
    index: str
    dedup: bool
    visited: int
    min_value: int
    max_value: int
    min_graphs: tuple[str, ...]
    max_graphs: tuple[str, ...]
    min_classes: int | None
    max_classes: int | None
    wall_time_s: float

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "n": self.n,
            "c": self.c,
            "m": self.m,
            "index": self.index,
            "dedup": self.dedup,
            "visited": self.visited,
            "min": {
                "value": self.min_value,
                "classes": self.min_classes,
                "graphs": list(self.min_graphs),
            },
            "max": {
                "value": self.max_value,
                "classes": self.max_classes,
                "graphs": list(self.max_graphs),
            },
            "wall_time_s": self.wall_time_s,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def _scan_slice(args):
    n, m, index, lo, hi = args
    return _kernel.scan_extremal(n, m, index, lo, hi)


def _merge(parts):
    # associative tracker merge; parts arrive in first-edge order, so the
    # concatenated witness lists match a single whole scan exactly
    visited = 0
    mn = mx = None
    mn_masks: list[int] = []
    mx_masks: list[int] = []
    for v, a, b, am, bm in parts:
        visited += v
        if a is None:
            continue
        if mn is None or a < mn:
            mn = a
            mn_masks = list(am)
        elif a == mn:
            mn_masks.extend(am)
        if mx is None or b > mx:
            mx = b
            mx_masks = list(bm)
        elif b == mx:
            mx_masks.extend(bm)
    return visited, mn, mx, mn_masks, mx_masks


def extremal_scan(spec: EnumSpec, index: str) -> ExtremalReport:
    """Exhaustive min/max of one index over the graphs selected by an EnumSpec."""
    if index not in INDEX_IDS:
        raise GraphError(
            f"unknown index {index!r}, choose from {', '.join(INDEX_IDS)}"
        )
    n, m = spec.n, spec.m
    t0 = time.perf_counter()
    full = n * (n - 1) // 2
    # admissible first edges: enough room for m-1 more, and never past the
    # column of vertex n-1 (the empty prefix rescues no component)
    top = min(full - m, full - (n - 1)) + 1
    if spec.workers == 1 or m == 0 or top < 2:
        parts = [_kernel.scan_extremal(n, m, index)]
    else:
        tasks = [(n, m, index, i, i + 1) for i in range(top)]
        with ProcessPoolExecutor(max_workers=min(spec.workers, len(tasks))) as pool:
            parts = list(pool.map(_scan_slice, tasks))
    visited, mn, mx, mn_masks, mx_masks = _merge(parts)
    if mn is None:
        raise GraphError(f"no connected graph with n={n}, m={m}")
    if spec.dedup:
        min_graphs, min_classes = _canonical_classes(n, mn_masks)
        max_graphs, max_classes = _canonical_classes(n, mx_masks)
    else:
        min_graphs = tuple(encode_mask(n, k) for k in mn_masks)
        max_graphs = tuple(encode_mask(n, k) for k in mx_masks)
        min_classes = max_classes = None
    return ExtremalReport(
        n=n,
        c=spec.c,
        m=m,
        index=index,
        dedup=spec.dedup,
        visited=visited,
        min_value=mn,
        max_value=mx,
        min_graphs=min_graphs,
        max_graphs=max_graphs,
        min_classes=min_classes,
        max_classes=max_classes,
        wall_time_s=time.perf_counter() - t0,
    )


def _canonical_classes(n: int, masks) -> tuple[tuple[str, ...], int]:
    forms = {canonical_form(graph_of_mask(n, mask)) for mask in masks}
    return tuple(sorted(forms)), len(forms)


def enumerate_connected(spec: EnumSpec, visitor) -> int:
    """Stream every labeled connected (n, m) graph to visitor; return the count."""
    n = spec.n
    return _kernel.visit_connected(
        n, spec.m, 0, None, lambda mask: visitor(graph_of_mask(n, mask))
    )


def brace_census(spec: EnumSpec) -> tuple[str, ...]:
    """Canonical forms of the enumerated graphs without pendant vertices."""
    if spec.c < 1:
        raise GraphError("a pendant-free census needs a cycle: c must be >= 1")
    return _canonical_classes(spec.n, _kernel.census_masks(spec.n, spec.m))[0]
