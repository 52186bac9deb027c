"""Pure-Python enumeration kernel.

Enumerates the size-m edge subsets of the complete graph on 0..n-1 that
form connected labeled graphs, depth-first over edge indices in column
(graph6) order, so subsets arrive in lexicographic order of their edge
indices.  One loop body serves every inner position; it stops where the
remaining positions could no longer be filled.

Connectivity is tested once, at the last position.  Each vertex keeps
its neighbours in the chosen prefix as a bitmask, and a frame of the
last position flood-fills from vertex 0.  If that reaches every vertex,
any remaining edge completes a connected graph.  Otherwise a second
fill from the lowest vertex left out must reach all the rest, or the
frame yields nothing; if it does, only the edges joining the two sides
complete a connected graph.

Each connected subset is handed on as its edge mask, and nothing more.
scan_extremal scores a mask from its edge list, with no Graph built, as
indices._formula(index)(degrees(n, edges), edges) over the edges of
graph6.mask_edges(n, mask).

No scan or sweep of the package runs this walk: it is the test suite's
labeled oracle for class generation, and perfbench imports it.  Callers
reach it through _kernel, and the test suite checks its walk, slices and
scans against brute force on every n <= 6.
"""

from __future__ import annotations

from . import indices
from .graph import GraphError
from .graph6 import edge_table, mask_edges


def visit_connected(n: int, m: int, lo: int, hi: int | None, callback) -> int:
    """Call callback(mask) once per connected labeled (n, m) graph.

    Returns the number of masks delivered.  The first-edge index is
    restricted to [lo, hi) so that disjoint ranges partition the work.
    Only frames of the last position test connectivity, by the flood
    fills the module docstring describes.
    """
    # checked here, once per call and outside the walk, for scan_extremal too
    if type(n) is not int or n < 1:
        raise GraphError(f"need at least one vertex, got n={n!r}")
    if type(m) is not int or m < 0:
        raise GraphError(f"edge count must be a nonnegative int, got m={m!r}")
    P = edge_table(n)
    E = len(P)
    if hi is None or hi > E:
        hi = E
    if m == 0:
        if n == 1 and lo == 0:
            callback(0)
            return 1
        return 0
    if m > E or lo >= hi:
        return 0

    full = (1 << n) - 1
    nb = [0] * n  # nb[v]: bitmask of v's neighbours in the chosen prefix
    last = m - 1
    visited = 0

    def flood(seen: int) -> int:
        # every vertex reachable from the vertices in seen
        todo = seen
        while todo:
            reach = 0
            while todo:
                low = todo & -todo
                reach |= nb[low.bit_length() - 1]
                todo ^= low
            todo = reach & ~seen
            seen |= todo
        return seen

    def rec(start: int, at: int, stop: int, mask: int) -> None:
        nonlocal visited
        end = E - last + at  # room for the last - at edges still to pick
        if end > stop:
            end = stop
        if at < last:
            for i in range(start, end):
                u, v = P[i]
                nb[u] ^= 1 << v
                nb[v] ^= 1 << u
                rec(i + 1, at + 1, E, mask | 1 << i)
                nb[u] ^= 1 << v
                nb[v] ^= 1 << u
            return
        side = flood(1)
        hits = range(start, end)
        if side != full:
            rest = full ^ side
            if side | flood(rest & -rest) != full:
                return
            # a two-component prefix: only an edge across the sides joins it
            hits = [i for i in hits if (side >> P[i][0] ^ side >> P[i][1]) & 1]
        for i in hits:
            visited += 1
            callback(mask | 1 << i)

    rec(lo, 0, hi, 0)
    return visited


def scan_extremal(n: int, m: int, index: str):
    """Min/max of the index over connected (n, m) graphs with witnesses.

    Returns (visited, min_value, max_value, min_masks, max_masks), the
    witness masks in walk order; (visited, None, None, [], []) when
    there is no graph.
    """
    value = indices._formula(index)
    lo = hi = None
    min_masks: list[int] = []
    max_masks: list[int] = []

    def score(mask: int) -> None:
        nonlocal lo, hi
        edges = mask_edges(n, mask)
        val = value(indices.degrees(n, edges), edges)
        if lo is None or val < lo:
            lo = val
            min_masks.clear()
            min_masks.append(mask)
        elif val == lo:
            min_masks.append(mask)
        if hi is None or val > hi:
            hi = val
            max_masks.clear()
            max_masks.append(mask)
        elif val == hi:
            max_masks.append(mask)

    visited = visit_connected(n, m, 0, None, score)
    return visited, lo, hi, min_masks, max_masks
