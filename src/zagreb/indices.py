"""Degree-based graph indices, all exact integers.

The vertex forms sum over vertices/edges of the graph itself; the edge
("reformulated") forms do the same on edge degrees, where the degree of
an edge uv is deg(u) + deg(v) - 2.  Equivalently, em1 and em2 are m1 and
m2 of the line graph; the test suite holds the package to that identity.

This module is the package's one definition of each index, written as a
function of a degree list and an edge list in any order: INDEX_FUNCS
maps each id to it, and every caller reaches it there.  Callers that
hold only an adjacency mask score the edges of graph6.mask_edges() with
the degrees() of that list and build no Graph; compute_index(), and so
m1()..em2(), score a Graph from its adjacency rows and edge tuple.
"""

from __future__ import annotations

from .graph import Graph, GraphError


def degrees(n: int, edges) -> list[int]:
    """Vertex degrees of the n-vertex graph with the given edge list."""
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def _m1(deg, edges) -> int:
    t = 0
    for d in deg:
        t += d * d
    return t


def _m2(deg, edges) -> int:
    t = 0
    for u, v in edges:
        t += deg[u] * deg[v]
    return t


def _em1(deg, edges) -> int:
    t = 0
    for u, v in edges:
        ed = deg[u] + deg[v] - 2
        t += ed * ed
    return t


def _em2(deg, edges) -> int:
    # Two distinct edges of a simple graph share at most one endpoint, so
    # with s(v) the sum of the degrees of the edges at v, s(v)^2 is their
    # squares plus twice the pairs at v: sum(s(v)^2) = 2*em1 + 2*em2.
    s = [0] * len(deg)
    squares = 0
    for u, v in edges:
        ed = deg[u] + deg[v] - 2
        s[u] += ed
        s[v] += ed
        squares += ed * ed
    return sum([x * x for x in s]) // 2 - squares


# every caller looks its formula up here at call time; perfbench wraps each
INDEX_FUNCS = {"m1": _m1, "m2": _m2, "em1": _em1, "em2": _em2}
INDEX_IDS = tuple(INDEX_FUNCS)


def m1(g: Graph) -> int:
    """First Zagreb index: sum of squared vertex degrees."""
    return compute_index(g, "m1")


def m2(g: Graph) -> int:
    """Second Zagreb index: sum of deg(u)*deg(v) over edges uv."""
    return compute_index(g, "m2")


def em1(g: Graph) -> int:
    """First reformulated Zagreb index: sum of squared edge degrees."""
    return compute_index(g, "em1")


def em2(g: Graph) -> int:
    """Second reformulated Zagreb index.

    Sum of deg(e)*deg(f) over unordered pairs of distinct adjacent edges,
    each pair counted once.
    """
    return compute_index(g, "em2")


def compute_index(g: Graph, index: str) -> int:
    """Dispatch by index id ("m1", "m2", "em1", "em2")."""
    try:
        fn = INDEX_FUNCS[index]
    except KeyError:
        raise GraphError(f"unknown index {index!r}, expected one of {INDEX_IDS}") from None
    return fn(list(map(len, g._adj)), g._edges)
