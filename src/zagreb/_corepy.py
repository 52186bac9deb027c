"""Pure-Python enumeration kernel.

Enumerates the size-m edge subsets of the complete graph on 0..n-1 that
form connected labeled graphs, depth-first over edge indices in column
(graph6) order, so subsets arrive in lexicographic order of their edge
indices.  One loop body serves every position; it stops where the
remaining positions could no longer be filled.

Connectivity is tested once, at the last position.  Each vertex keeps
its neighbours in the chosen prefix as a bitmask, and a frame of the
last position flood-fills from vertex 0.  If that reaches every vertex,
any remaining edge completes a connected graph.  Otherwise a second
fill from the lowest vertex left out must reach all the rest, or the
frame yields nothing; if it does, only the edges joining the two sides
complete a connected graph.

Each connected leaf is handed on as its mask, the live degree list and
the chosen edge pairs.  scan_extremal scores it with the index's one
definition, indices.FROM_DEGREES, so this module holds no index formula.

This is the package's one enumeration kernel.  Callers reach it through
_kernel, and the test suite checks its walk, slices and scans against
brute force on every n <= 6.
"""

from __future__ import annotations

from . import indices
from .graph6 import edge_table


def _driver(n: int, m: int, lo: int, hi: int, on_leaf) -> int:
    """Run the DFS; call on_leaf(mask, deg, sel) per connected subset.

    on_leaf gets the live degree list and the list of chosen edge pairs
    (u, v), in the form indices.FROM_DEGREES takes; it must not keep
    references to them.  Returns the number of connected subsets
    delivered.  The first-edge index is restricted to [lo, hi) so that
    disjoint ranges partition the work.  Only frames of the last
    position test connectivity, by the flood fills the module docstring
    describes.
    """
    if m < 0:
        raise ValueError(f"edge count must be nonnegative, got {m}")
    P = edge_table(n)
    E = len(P)
    if hi is None or hi > E:
        hi = E
    if m == 0:
        if n == 1 and lo == 0:
            on_leaf(0, [0], [])
            return 1
        return 0
    if m > E or lo >= hi:
        return 0

    full = (1 << n) - 1
    deg = [0] * n
    nb = [0] * n  # nb[v]: bitmask of v's neighbours in the chosen prefix
    sel = [(0, 0)] * m
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
        leaf = at == last
        end = E - last + at  # room for the last - at edges still to pick
        if end > stop:
            end = stop
        cross = False
        if leaf:
            side = flood(1)
            if side != full:
                rest = full ^ side
                if side | flood(rest & -rest) != full:
                    return
                cross = True
        for i in range(start, end):
            p = P[i]
            u, v = p
            if cross and (side >> u & 1) == (side >> v & 1):
                continue  # both ends on one side of a two-component prefix
            deg[u] += 1
            deg[v] += 1
            sel[at] = p
            if leaf:
                visited += 1
                on_leaf(mask | 1 << i, deg, sel)
            else:
                nb[u] ^= 1 << v
                nb[v] ^= 1 << u
                rec(i + 1, at + 1, E, mask | 1 << i)
                nb[u] ^= 1 << v
                nb[v] ^= 1 << u
            deg[u] -= 1
            deg[v] -= 1

    rec(lo, 0, hi, 0)
    return visited


def scan_extremal(n: int, m: int, index: str, lo: int = 0, hi: int | None = None):
    """Min/max of the index over connected (n, m) graphs with witnesses.

    Returns (visited, min_value, max_value, min_masks, max_masks); the
    None/empty variant when the range [lo, hi) contains no graph.
    """
    try:
        value = indices.FROM_DEGREES[index]
    except KeyError:
        raise ValueError(f"unknown index {index!r}") from None
    state = {"min": None, "max": None}
    min_masks: list[int] = []
    max_masks: list[int] = []

    def on_leaf(mask, deg, sel):
        val = value(deg, sel)
        mn = state["min"]
        if mn is None or val < mn:
            state["min"] = val
            min_masks.clear()
            min_masks.append(mask)
        elif val == mn:
            min_masks.append(mask)
        mx = state["max"]
        if mx is None or val > mx:
            state["max"] = val
            max_masks.clear()
            max_masks.append(mask)
        elif val == mx:
            max_masks.append(mask)

    visited = _driver(n, m, lo, hi, on_leaf)
    return visited, state["min"], state["max"], min_masks, max_masks


def visit_connected(n: int, m: int, lo: int, hi: int | None, callback) -> int:
    """Call callback(mask) once per connected labeled (n, m) graph."""
    return _driver(n, m, lo, hi, lambda mask, deg, sel: callback(mask))

