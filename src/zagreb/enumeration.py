"""Exhaustive scans over small connected graphs.

The extremal theorems concern isomorphism classes, so a deduplicated
scan walks classes, not labeled graphs.  connected_classes(n, m) builds
every connected class once: the trees on n vertices come from the trees
on n-1 vertices with a leaf hung on a vertex, and the classes with m+1
edges come from those with m edges by adding a non-edge, every candidate
deduplicated by its canonical form.  The same canonical search counts
|Aut| for each class, and a class stands for n!/|Aut| of the labeled
graphs, so `visited` stays the labeled count.  Nothing is cached between
calls.

The search also returns generators of each class's automorphism group,
and a parent is augmented only once per orbit of that group: a leaf on
the lowest vertex of each vertex orbit, a new edge at the lowest index
of each non-edge orbit.  An automorphism carries one augmentation of an
orbit onto another, so they give isomorphic children, and the lowest
member comes first in the old loop order: the classes, their |Aut| and
the order they are first met are unchanged.  (This is the orbit step of
McKay, "Isomorph-free exhaustive generation", J. Algorithms 26, 1998;
the canonical-form dedup stays in place of canonical augmentation.)

A labeled scan (dedup=False) runs the same class scan and then expands
only the extreme classes into their labeled members: every relabeling
of a class mask, deduplicated, put in the enumeration kernel's walk
order.  Its witness lists are therefore exactly the labeled ones a walk
of every edge subset of K_n would report, without that walk.

Hard caps keep the worst case at desk scale; the one gated case (n=9 at
c=3, about 6e8 labeled subsets) sits behind allow_large.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from itertools import permutations

from . import _kernel
# perfbench/tracer.py wraps canonical_form and _from_edges in each module
# that imports them
from .canon import _canonical_search, canonical_form  # noqa: F401
from .graph import GraphError, _from_edges  # noqa: F401
from .graph6 import edge_table, encode_mask, graph_of_mask, mask_rows
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


def extremal_scan(spec: EnumSpec, index: str) -> ExtremalReport:
    """Exhaustive min/max of one index over the graphs selected by an EnumSpec."""
    if index not in INDEX_IDS:
        raise GraphError(
            f"unknown index {index!r}, choose from {', '.join(INDEX_IDS)}"
        )
    n, m = spec.n, spec.m
    t0 = time.perf_counter()
    # an EnumSpec admits only n-1 <= m <= C(n,2), so there is a class
    classes = connected_classes(n, m)
    order = math.factorial(n)
    values = {mask: compute_index(graph_of_mask(n, mask), index) for mask in classes}
    mn, mx = min(values.values()), max(values.values())
    mn_masks = [k for k, v in values.items() if v == mn]
    mx_masks = [k for k, v in values.items() if v == mx]
    if spec.dedup:
        min_graphs = tuple(sorted(encode_mask(n, k) for k in mn_masks))
        max_graphs = tuple(sorted(encode_mask(n, k) for k in mx_masks))
        min_classes, max_classes = len(min_graphs), len(max_graphs)
    else:
        min_graphs = tuple(encode_mask(n, k) for k in _labeled_members(n, mn_masks))
        max_graphs = tuple(encode_mask(n, k) for k in _labeled_members(n, mx_masks))
        min_classes = max_classes = None
    return ExtremalReport(
        n=n,
        c=spec.c,
        m=m,
        index=index,
        dedup=spec.dedup,
        visited=sum(order // aut for aut in classes.values()),
        min_value=mn,
        max_value=mx,
        min_graphs=min_graphs,
        max_graphs=max_graphs,
        min_classes=min_classes,
        max_classes=max_classes,
        wall_time_s=time.perf_counter() - t0,
    )


def _labeled_members(n: int, masks) -> list[int]:
    """Every labeled mask in the classes of the given masks, in walk order.

    The kernel walks edge subsets in lexicographic order of their
    ascending edge indices; among masks with one edge count that is
    descending order of the bit-reversed mask.
    """
    bit = [[0] * n for _ in range(n)]
    for k, (u, v) in enumerate(edge_table(n)):
        bit[u][v] = bit[v][u] = 1 << k
    members = set()
    for mask in masks:
        edges = graph_of_mask(n, mask).edges
        for p in permutations(range(n)):
            members.add(sum([bit[p[u]][p[v]] for u, v in edges]))
    width = n * (n - 1) // 2
    return sorted(members, key=lambda k: f"{k:0{width}b}"[::-1], reverse=True)


def _dedup(n: int, masks):
    # {canonical mask: |Aut|} and {canonical mask: Aut generators} of the
    # labeled (n-vertex) masks given, in the order the classes first appear
    classes: dict[int, int] = {}
    gens: dict[int, list[tuple[int, ...]]] = {}
    for mask in masks:
        form, aut, perms = _canonical_search(n, mask_rows(n, mask))
        if form not in classes:
            classes[form] = aut
            gens[form] = perms
    return classes, gens


def _orbit_reps(points, perms) -> list[int]:
    """The lowest point of each orbit of the group the perms generate.

    points is ascending and closed under every perm; the result is
    ascending too.
    """
    reps: list[int] = []
    seen: set[int] = set()
    for p in points:
        if p in seen:
            continue
        reps.append(p)
        seen.add(p)
        stack = [p]
        while stack:
            q = stack.pop()
            for perm in perms:
                r = perm[q]
                if r not in seen:
                    seen.add(r)
                    stack.append(r)
    return reps


def _pair_perm(perm, pairs) -> tuple[int, ...]:
    # the vertex permutation's action on the indices of the edge table pairs
    return tuple(
        a * (a - 1) // 2 + b if a > b else b * (b - 1) // 2 + a
        for a, b in ((perm[u], perm[v]) for u, v in pairs)
    )


def _class_levels(n: int):
    """Yield (m, connected_classes(n, m)) for m = n-1 .. C(n,2) in turn."""
    # a mask on k-1 vertices is the same mask on k with vertex k-1 isolated,
    # and edge (u, v), u < v, has index v(v-1)/2 + u
    level, gens = {0: 1}, {0: []}
    for k in range(2, n + 1):
        base = (k - 1) * (k - 2) // 2
        level, gens = _dedup(k, (
            mask | 1 << (base + v)
            for mask, perms in gens.items()
            for v in _orbit_reps(range(k - 1), perms)
        ))
    full = n * (n - 1) // 2
    pairs = edge_table(n)
    for m in range(n - 1, full + 1):
        yield m, level
        if m < full:
            level, gens = _dedup(n, (
                mask | 1 << j
                for mask, perms in gens.items()
                for j in _orbit_reps(
                    [j for j in range(full) if not mask >> j & 1],
                    [_pair_perm(perm, pairs) for perm in perms],
                )
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
        if min(map(len, mask_rows(n, mask))) >= 2
    ))
