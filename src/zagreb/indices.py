"""Degree-based graph indices, all exact integers.

The vertex forms sum over vertices/edges of the graph itself; the edge
("reformulated") forms do the same on edge degrees, where the degree of
an edge uv is deg(u) + deg(v) - 2.  Equivalently, em1 and em2 are m1 and
m2 of the line graph; the test suite holds the package to that identity.
"""

from __future__ import annotations

from .graph import Graph, GraphError

INDEX_IDS = ("m1", "m2", "em1", "em2")


def _edge_degrees(g: Graph) -> list[int]:
    # deg(u) + deg(v) - 2 for each edge uv, in g.edges order
    deg = list(map(len, g._adj))
    return [deg[u] + deg[v] - 2 for u, v in g._edges]


def m1(g: Graph) -> int:
    """First Zagreb index: sum of squared vertex degrees."""
    return sum([d * d for d in map(len, g._adj)])


def m2(g: Graph) -> int:
    """Second Zagreb index: sum of deg(u)*deg(v) over edges uv."""
    deg = list(map(len, g._adj))
    return sum([deg[u] * deg[v] for u, v in g._edges])


def em1(g: Graph) -> int:
    """First reformulated Zagreb index: sum of squared edge degrees."""
    return sum([d * d for d in _edge_degrees(g)])


def em2(g: Graph) -> int:
    """Second reformulated Zagreb index.

    Sum of deg(e)*deg(f) over unordered pairs of distinct adjacent edges,
    each pair counted once.  Two distinct edges of a simple graph share at
    most one endpoint, so with s(v) the sum of the degrees of the edges at
    v, s(v)^2 is their squares plus twice the pairs at v, and
    sum(s(v)^2) = 2*em1 + 2*em2 exactly.
    """
    s = [0] * g.n
    squares = 0
    for (u, v), ed in zip(g._edges, _edge_degrees(g)):
        s[u] += ed
        s[v] += ed
        squares += ed * ed
    return sum([x * x for x in s]) // 2 - squares


INDEX_FUNCS = {"m1": m1, "m2": m2, "em1": em1, "em2": em2}


def compute_index(g: Graph, index: str) -> int:
    """Dispatch by index id ("m1", "m2", "em1", "em2")."""
    try:
        fn = INDEX_FUNCS[index]
    except KeyError:
        raise GraphError(f"unknown index {index!r}, expected one of {INDEX_IDS}") from None
    return fn(g)
