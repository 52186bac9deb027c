"""Exhaustive scans over small connected graphs.

The extremal theorems concern isomorphism classes, so a deduplicated
scan walks classes, not labeled graphs.  connected_classes(n, m) builds
every connected class once: the trees on n vertices come from the trees
on n-1 vertices with a leaf hung on a vertex, and the classes with m+1
edges come from those with m edges by adding a non-edge.  The canonical
search of each kept child gives its canonical mask, |Aut| and
generators of its automorphism group.  A class stands for n!/|Aut| of
the labeled graphs, so `visited` stays the labeled count.  Nothing is
cached between calls.

Each class is met once, along McKay's canonical construction path
("Isomorph-free exhaustive generation", J. Algorithms 26, 1998).  A
parent is augmented once per orbit of its automorphism group: a leaf on
the lowest vertex of each vertex orbit, a new edge at the lowest index
of each non-edge orbit.  A child is kept only when what was added lies
in the Aut(child)-orbit of the child's canonical deletion:

- on edge levels, among the non-bridge edges uv that maximise
  (d(u)+d(v), min d, s(u)+s(v), min s), the one with the lowest
  canonical edge index, where d is the degree and s(x) the sum of x's
  neighbours' degrees;
- on tree levels, among the leaves whose neighbour maximises (d, s),
  the one at the lowest canonical position.

Deleting it leaves a connected class of the level before, and the
deletion is fixed up to an automorphism, so each class is kept from
exactly one parent and one orbit of its augmentations.

The invariant settles most candidates before any search (McKay &
Piperno, "Practical graph isomorphism, II", 2014).  Per parent, the
gate holds its degrees, neighbour-degree sums and bridges, each with
the vertices on one side of it, and the largest degree sum of a
non-bridge edge.  Adding an edge makes no bridge and lowers no degree,
so a new edge uv is rejected at once when that sum exceeds
d(u)+d(v)+2.  Otherwise the child's degrees and sums follow from the
parent's by +1 updates, and a parent bridge stays one exactly when u
and v lie on the same side of it.  Only an edge that no rival beats
reaches the canonical search, whose labeling names the canonical
deletion among the tied edges and whose generators decide the orbit.

A labeled scan (dedup=False) runs the same class scan and then expands
only the extreme classes into their labeled members: every relabeling
of a class mask, deduplicated, put in the enumeration kernel's walk
order.  Its witness lists are therefore exactly the labeled ones a walk
of every edge subset of K_n would report, without that walk.

Which orders may run is one table, ORDER_CAPS, read by EnumSpec alone.
Its one gated row, n=9 at c=3, is 2075 classes to a class scan.
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
from .canon import CANON_LIMIT, _canonical_search, canonical_form  # noqa: F401
from .graph import GraphError, _from_edges  # noqa: F401
from .graph6 import edge_table, encode_mask, graph_of_mask, mask_edges, mask_rows
from .indices import _formula, degrees

# the order policy: c -> (highest n admitted freely, highest with allow_large)
ORDER_CAPS = {0: (9, 9), 1: (9, 9), 2: (9, 9), 3: (8, 9)}
# the highest n of the enumerated lemma corpus: n = 10 alone has 11.7M classes
LEMMA_MAX_N = 9


@dataclass(frozen=True)
class EnumSpec:
    """Which graphs to visit: connected, n vertices, m = n-1+c edges."""

    n: int
    c: int
    dedup: bool = True
    allow_large: bool = False

    def __post_init__(self):
        for flag in ("dedup", "allow_large"):
            value = getattr(self, flag)
            if type(value) is not bool:
                raise GraphError(f"{flag} must be True or False, got {value!r}")
        if type(self.c) is not int or self.c not in ORDER_CAPS:
            raise GraphError(f"cyclomatic number must be 0..3, got {self.c!r}")
        if type(self.n) is not int or self.n < 1:
            raise GraphError(f"need at least one vertex, got n={self.n!r}")
        full = self.n * (self.n - 1) // 2
        if self.m > full:
            raise GraphError(
                f"no connected graph has n={self.n} and c={self.c}: "
                f"that needs m={self.m} edges but K_{self.n} has only {full}"
            )
        self.check_cap((self.n,), self.c)
        if self.n > ORDER_CAPS[self.c][0] and not self.allow_large:
            # C(36,11) is the labeled walk at n=9, c=3; callers match this text
            raise GraphError(
                f"n={self.n} at c={self.c} means roughly C(36,11) ~ 6e8 edge subsets; "
                f"pass allow_large=True (CLI: --allow-large) to run it anyway"
            )

    @staticmethod
    def check_cap(orders, c: int) -> None:
        """Raise the cap error at the lowest of the ascending orders above c's cap."""
        top = ORDER_CAPS[c][1]
        if orders and orders[-1] > top:
            if isinstance(orders, range):  # read by its ends and step, never walked
                orders = orders[max(0, (top - orders[0]) // orders.step + 1):]
            n = next(n for n in orders if n > top)
            raise GraphError(f"enumeration is capped at n={top}, got n={n}")

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
    score = _formula(index)
    n, m = spec.n, spec.m
    t0 = time.perf_counter()
    # an EnumSpec admits only n-1 <= m <= C(n,2), so there is a class
    classes = connected_classes(n, m)
    order = math.factorial(n)
    values = {}
    for mask in classes:
        edges = mask_edges(n, mask)
        values[mask] = score(degrees(n, edges), edges)
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
        edges = mask_edges(n, mask)
        for p in permutations(range(n)):
            members.add(sum([bit[p[u]][p[v]] for u, v in edges]))
    width = n * (n - 1) // 2
    return sorted(members, key=lambda k: f"{k:0{width}b}"[::-1], reverse=True)


def _orbit(point, perms) -> set[int]:
    """The orbit of point under the group the perms generate."""
    seen = {point}
    stack = [point]
    while stack:
        q = stack.pop()
        for perm in perms:
            r = perm[q]
            if r not in seen:
                seen.add(r)
                stack.append(r)
    return seen


def _orbit_reps(points, perms) -> list[int]:
    """The lowest point of each orbit of the group the perms generate.

    points is ascending and closed under every perm; the result is
    ascending too.
    """
    reps: list[int] = []
    seen: set[int] = set()
    for p in points:
        if p not in seen:
            reps.append(p)
            seen |= _orbit(p, perms)
    return reps


def _pair_perm(perm, pairs) -> tuple[int, ...]:
    # the vertex permutation's action on the indices of the edge table pairs
    # (a plain loop: half the time of nested generators)
    images = []
    for u, v in pairs:
        a, b = perm[u], perm[v]
        images.append(a * (a - 1) // 2 + b if a > b else b * (b - 1) // 2 + a)
    return tuple(images)


def _bridge_sides(n: int, rows) -> dict[tuple[int, int], int]:
    """{(a, b): side} for each bridge ab, a < b, of a connected graph.

    side is the vertex mask of one of the two parts the bridge joins: the
    depth-first subtree below it (Tarjan's low-point test).
    """
    order = [-1] * n
    low = [0] * n
    sides: dict[tuple[int, int], int] = {}
    clock = iter(range(n))

    def visit(w: int, up: int) -> int:
        order[w] = low[w] = t = next(clock)
        below = 1 << w
        for x in rows[w]:
            if order[x] < 0:
                sub = visit(x, w)
                below |= sub
                low[w] = min(low[w], low[x])
                if low[x] > t:
                    sides[(w, x) if w < x else (x, w)] = sub
            elif x != up:
                low[w] = min(low[w], order[x])
        return below

    visit(0, -1)
    return sides


def _collect(children):
    # {canonical mask: |Aut|} and {canonical mask: Aut generators} of the
    # kept children; a class kept twice would break every weight silently
    classes: dict[int, int] = {}
    gens: dict[int, list[tuple[int, ...]]] = {}
    for form, aut, perms in children:
        if form in classes:
            raise RuntimeError(f"class generation kept the class of mask {form} twice")
        classes[form] = aut
        gens[form] = perms
    return classes, gens


def _leaf_children(k: int, parents):
    """(canonical mask, |Aut|, generators) of each tree on k vertices.

    parents maps the canonical mask of each tree on k-1 vertices to its
    Aut generators; leaf k-1 is hung on each vertex orbit's lowest member
    and kept when it lies in the orbit of the canonical leaf.
    """
    for mask, perms in parents.items():
        # the mask on k-1 vertices is the same mask on k, vertex k-1 isolated
        rows = mask_rows(k, mask)
        for v in _orbit_reps(range(k - 1), perms):
            adj = rows[:]
            adj[v] = rows[v] + [k - 1]
            adj[k - 1] = [v]
            deg = list(map(len, adj))
            # each leaf w scores (d, s) of its neighbour y
            score = {
                w: (deg[y], sum([deg[x] for x in adj[y]]))
                for w in range(k) if deg[w] == 1 for y in adj[w]
            }
            top = score[k - 1]
            if max(score.values()) > top:
                continue
            form, aut, cperms, pos = _canonical_search(k, adj)
            # the canonical leaf: the tied leaf of lowest canonical position
            ranks = [pos[w] for w, key in score.items() if key == top]
            if pos[k - 1] in _orbit(min(ranks), cperms):
                yield form, aut, cperms


def _edge_children(n: int, parents, pairs):
    """(canonical mask, |Aut|, generators) of each class one edge up.

    parents maps the canonical mask of each connected class with m edges
    to its Aut generators; a new edge goes in at the lowest index of each
    non-edge orbit and is kept when it lies in the orbit of the canonical
    deletion.
    """
    full = len(pairs)
    for mask, perms in parents.items():
        rows = mask_rows(n, mask)
        deg = list(map(len, rows))
        nsum = [sum([deg[w] for w in row]) for row in rows]
        edges = [(a, b) for b, row in enumerate(rows) for a in row if a < b]
        sides = _bridge_sides(n, rows)
        # adding uv makes no bridge and lowers no degree, so a non-bridge
        # edge of degree sum above d(u)+d(v)+2 outscores uv in the child
        gate = max([deg[a] + deg[b] for a, b in edges if (a, b) not in sides], default=0)
        for j in _orbit_reps(
            [j for j in range(full) if not mask >> j & 1],
            [_pair_perm(perm, pairs) for perm in perms],
        ):
            u, v = pairs[j]
            if gate > deg[u] + deg[v] + 2:
                continue
            d = deg[:]
            d[u] += 1
            d[v] += 1
            s = nsum[:]
            for w in rows[u]:
                s[w] += 1
            for w in rows[v]:
                s[w] += 1
            s[u] += d[v]
            s[v] += d[u]
            tied = _ties(edges, sides, d, s, u, v)
            if tied is None:
                continue
            adj = rows[:]
            adj[u] = rows[u] + [v]
            adj[v] = rows[v] + [u]
            form, aut, cperms, pos = _canonical_search(n, adj)
            if len(tied) > 1:
                # the canonical deletion: the tied edge of lowest canonical index
                ranks = _pair_perm(pos, tied)
                if ranks[0] not in _orbit(min(ranks), [_pair_perm(p, pairs) for p in cperms]):
                    continue
            yield form, aut, cperms


def _ties(edges, sides, d, s, u, v):
    """The child's non-bridge edges that score as high as its new edge uv.

    The list starts with uv; None when some non-bridge edge scores higher.
    d and s are the child's degrees and neighbour-degree sums; an edge of
    the parent that sides names is still a bridge when u and v lie on the
    same side of it.
    """
    du, dv, su, sv = d[u], d[v], s[u], s[v]
    top = (du + dv, min(du, dv), su + sv, min(su, sv))
    tied = [(u, v)]
    for a, b in edges:
        da, db = d[a], d[b]
        if da + db < top[0]:
            continue
        sa, sb = s[a], s[b]
        key = (da + db, min(da, db), sa + sb, min(sa, sb))
        if key < top:
            continue
        side = sides.get((a, b))
        if side is not None and (side >> u & 1) == (side >> v & 1):
            continue
        if key > top:
            return None
        tied.append((a, b))
    return tied


def _class_levels(n: int):
    """Yield (m, connected_classes(n, m)) for m = n-1 .. C(n,2) in turn."""
    level, gens = {0: 1}, {0: []}
    for k in range(2, n + 1):
        level, gens = _collect(_leaf_children(k, gens))
    pairs = edge_table(n)
    full = len(pairs)
    for m in range(n - 1, full + 1):
        yield m, level
        if m < full:
            level, gens = _collect(_edge_children(n, gens, pairs))


def connected_classes(n: int, m: int) -> dict[int, int]:
    """Isomorphism classes of connected graphs with n vertices and m edges.

    Maps each class's canonical adjacency mask (the mask canonical_form
    encodes) to |Aut| of the class; the class holds n!/|Aut| labeled
    graphs.  Empty when no connected (n, m) graph exists; n is bounded
    by the canonical search's CANON_LIMIT.
    """
    if type(n) is not int or n < 1:
        raise GraphError(f"need at least one vertex, got n={n!r}")
    if type(m) is not int:
        raise GraphError(f"edge count must be an int, got m={m!r}")
    if n > CANON_LIMIT:
        raise GraphError(f"class generation is capped at n={CANON_LIMIT}, got n={n}")
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
        if min(degrees(n, mask_edges(n, mask))) >= 2
    ))
