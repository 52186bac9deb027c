"""Pure-Python enumeration kernel.

Enumerates the size-m edge subsets of the complete graph on 0..n-1 that
form connected labeled graphs, depth-first over edge indices in column
(graph6) order, so subsets arrive in lexicographic order of their edge
indices.  One loop body serves every position; it stops where the
remaining positions could no longer be filled.

Connectivity is a union-find over the chosen prefix whose unions keep
the larger root, so each root is its component's maximum vertex and one
descending pass flattens it.  It runs once per frame, where it prunes:
inside the last column (edges into vertex n-1) the suffix from index
lastg + u0 only rescues components owning a vertex >= u0, capping the
loop at lastg + min(component maxima); at the last position a frame
with more than two components yields nothing, and with two only the
edges joining them complete a connected graph.

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
    disjoint ranges partition the work.
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

    deg = [0] * n
    sel = [(0, 0)] * m
    root = [0] * n
    lastg = E - (n - 1)  # index of the first edge into vertex n-1
    last = m - 1
    visited = 0

    def roots(depth: int) -> int:
        # root[t] = largest vertex of t's component in sel[:depth]; returns
        # the component count
        root[:] = range(n)
        comps = n
        for jj in range(depth):
            a, b = sel[jj]
            while root[a] != a:
                a = root[a]
            while root[b] != b:
                b = root[b]
            if a != b:
                comps -= 1
                if a < b:
                    root[a] = b
                else:
                    root[b] = a
        for t in range(n - 2, -1, -1):  # parents point upward: one pass
            root[t] = root[root[t]]
        return comps

    def rec(start: int, at: int, stop: int, mask: int) -> None:
        nonlocal visited
        leaf = at == last
        end = E - last + at  # room for the last - at edges still to pick
        if end > stop:
            end = stop
        join = False
        if leaf or end > lastg:
            comps = roots(at)
            if leaf:
                if comps > 2:
                    return
                join = comps == 2
            if end > lastg:
                cap = lastg + min(root) + 1
                if end > cap:
                    end = cap
        for i in range(start, end):
            p = P[i]
            u, v = p
            if join and root[u] == root[v]:
                continue
            deg[u] += 1
            deg[v] += 1
            sel[at] = p
            if leaf:
                visited += 1
                on_leaf(mask | 1 << i, deg, sel)
            else:
                rec(i + 1, at + 1, E, mask | 1 << i)
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


def census_masks(n: int, m: int, lo: int = 0, hi: int | None = None) -> list[int]:
    """Masks of the connected (n, m) graphs with minimum degree >= 2."""
    out: list[int] = []

    def on_leaf(mask, deg, sel):
        for d in deg:
            if d < 2:
                return
        out.append(mask)

    _driver(n, m, lo, hi, on_leaf)
    return out
