"""Exhaustive scans over small connected graphs.

The extremal theorems concern isomorphism classes, so a deduplicated
scan walks classes, not labeled graphs.  connected_classes(n, m) builds
every connected class once: the trees on n vertices come from the trees
on n-1 vertices with a leaf hung on each vertex, and the classes with
m+1 edges come from those with m edges by adding each non-edge, every
candidate deduplicated by its canonical form.  The same canonical
search counts |Aut| for each class, and a class stands for n!/|Aut| of
the labeled graphs, so `visited` stays the labeled count.  Nothing is
cached between calls.  (The augmentation follows McKay, "Isomorph-free
exhaustive generation", J. Algorithms 26, 1998, but dedups by canonical
form instead of canonical augmentation.)

A labeled scan (dedup=False) walks every edge subset of K_n in the
enumeration kernel and reports labeled witnesses in enumeration order.
It can fan out over worker processes, each owning a slice of the
first-edge indices.  The tracker merge is associative and the slices
are folded in index order, so the report is identical at any worker
count (apart from wall time).

Hard caps keep the worst case at desk scale; the one gated case (n=9 at
c=3, about 6e8 labeled subsets) sits behind allow_large.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import _kernel
# perfbench/tracer.py wraps canonical_form and _from_edges in each module
# that imports them
from .canon import _canonical_search, canonical_form  # noqa: F401
from .graph import GraphError, _from_edges  # noqa: F401
from .graph6 import encode_mask, graph_of_mask
from .indices import INDEX_IDS, compute_index

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

    With dedup the witness lists are the sorted canonical forms of the
    extreme classes and the class counts are exact; without it they are
    the labeled graphs in enumeration order and the class counts are
    None.  Either way `visited` counts labeled graphs.
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
    if spec.dedup:
        visited, mn, mx, mn_masks, mx_masks = _scan_classes(n, m, index)
    else:
        full = n * (n - 1) // 2
        # admissible first edges: enough room for m-1 more, and never past
        # the column of vertex n-1 (the empty prefix rescues no component)
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
        min_graphs = tuple(sorted(encode_mask(n, k) for k in mn_masks))
        max_graphs = tuple(sorted(encode_mask(n, k) for k in mx_masks))
        min_classes, max_classes = len(min_graphs), len(max_graphs)
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


def _scan_classes(n: int, m: int, index: str):
    # the kernel's (visited, min, max, min_masks, max_masks), over classes:
    # visited is the labeled count, the masks are canonical
    classes = connected_classes(n, m)
    order = math.factorial(n)
    visited = sum(order // aut for aut in classes.values())
    values = {mask: compute_index(graph_of_mask(n, mask), index) for mask in classes}
    mn = min(values.values(), default=None)
    mx = max(values.values(), default=None)
    return (
        visited,
        mn,
        mx,
        [k for k, v in values.items() if v == mn],
        [k for k, v in values.items() if v == mx],
    )


def _dedup(n: int, masks) -> dict[int, int]:
    # {canonical mask: |Aut|} of the labeled (n-vertex) masks given
    classes: dict[int, int] = {}
    for mask in masks:
        form, aut = _canonical_search(graph_of_mask(n, mask))
        classes.setdefault(form, aut)
    return classes


def _class_levels(n: int):
    """Yield (m, connected_classes(n, m)) for m = n-1 .. C(n,2) in turn."""
    # a mask on k-1 vertices is the same mask on k with vertex k-1 isolated,
    # and edge (v, k-1) has index (k-1)(k-2)/2 + v
    level = {0: 1}
    for k in range(2, n + 1):
        base = (k - 1) * (k - 2) // 2
        level = _dedup(k, (mask | 1 << (base + v) for mask in level for v in range(k - 1)))
    full = n * (n - 1) // 2
    for m in range(n - 1, full + 1):
        yield m, level
        if m < full:
            level = _dedup(n, (
                mask | 1 << j for mask in level for j in range(full) if not mask >> j & 1
            ))


def connected_classes(n: int, m: int) -> dict[int, int]:
    """Isomorphism classes of connected graphs with n vertices and m edges.

    Maps each class's canonical adjacency mask (the mask canonical_form
    encodes) to |Aut| of the class; the class holds n!/|Aut| labeled
    graphs.  Empty when no connected (n, m) graph exists.
    """
    if n < 1:
        raise GraphError(f"need at least one vertex, got n={n}")
    if not n - 1 <= m <= n * (n - 1) // 2:
        return {}
    for level_m, level in _class_levels(n):
        if level_m == m:
            return level


def enumerate_connected(spec: EnumSpec, visitor) -> int:
    """Stream every labeled connected (n, m) graph to visitor; return the count."""
    n = spec.n
    return _kernel.visit_connected(
        n, spec.m, 0, None, lambda mask: visitor(graph_of_mask(n, mask))
    )


def brace_census(spec: EnumSpec) -> tuple[str, ...]:
    """Canonical forms of the connected (n, m) classes without pendant vertices."""
    if spec.c < 1:
        raise GraphError("a pendant-free census needs a cycle: c must be >= 1")
    n = spec.n
    return tuple(sorted(
        encode_mask(n, mask)
        for mask in connected_classes(n, spec.m)
        if min(map(len, graph_of_mask(n, mask)._adj)) >= 2
    ))
