"""Degree-based graph indices, all exact integers.

The vertex forms sum over vertices/edges of the graph itself; the edge
("reformulated") forms do the same on edge degrees, where the degree of
an edge uv is deg(u) + deg(v) - 2.  Equivalently, em1 and em2 are m1 and
m2 of the line graph; the test suite holds the package to that identity.

This module is the package's one definition of each index, written as a
function of a Graph that reads its degrees from the adjacency rows and
walks its edge list.  Every caller, the enumeration kernel's scans
included, scores a Graph through them.
"""

from __future__ import annotations

from .graph import Graph, GraphError


def m1(g: Graph) -> int:
    """First Zagreb index: sum of squared vertex degrees."""
    deg = list(map(len, g._adj))
    t = 0
    for d in deg:
        t += d * d
    return t


def m2(g: Graph) -> int:
    """Second Zagreb index: sum of deg(u)*deg(v) over edges uv."""
    deg = list(map(len, g._adj))
    t = 0
    for u, v in g._edges:
        t += deg[u] * deg[v]
    return t


def em1(g: Graph) -> int:
    """First reformulated Zagreb index: sum of squared edge degrees."""
    deg = list(map(len, g._adj))
    t = 0
    for u, v in g._edges:
        ed = deg[u] + deg[v] - 2
        t += ed * ed
    return t


def em2(g: Graph) -> int:
    """Second reformulated Zagreb index.

    Sum of deg(e)*deg(f) over unordered pairs of distinct adjacent edges,
    each pair counted once.
    """
    # Two distinct edges of a simple graph share at most one endpoint, so
    # with s(v) the sum of the degrees of the edges at v, s(v)^2 is their
    # squares plus twice the pairs at v: sum(s(v)^2) = 2*em1 + 2*em2.
    deg = list(map(len, g._adj))
    s = [0] * len(deg)
    squares = 0
    for u, v in g._edges:
        ed = deg[u] + deg[v] - 2
        s[u] += ed
        s[v] += ed
        squares += ed * ed
    return sum([x * x for x in s]) // 2 - squares


INDEX_FUNCS = {"m1": m1, "m2": m2, "em1": em1, "em2": em2}
INDEX_IDS = tuple(INDEX_FUNCS)


def compute_index(g: Graph, index: str) -> int:
    """Dispatch by index id ("m1", "m2", "em1", "em2")."""
    try:
        fn = INDEX_FUNCS[index]
    except KeyError:
        raise GraphError(f"unknown index {index!r}, expected one of {INDEX_IDS}") from None
    return fn(g)
