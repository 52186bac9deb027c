"""Constructors for the named extremal families and the registry of their
closed-form em1 values.

s_n_m(n, m) is the star on n vertices with one distinguished leaf joined
to m - n + 1 of the other leaves; s_n_k4(n) is a 4-clique with n - 4
pendant vertices on one of its corners.  Both maximize em1 in their
cyclomatic class, which is what the verification harness checks.

Each family is one ReferenceValue row: its closed form, where the form
comes from, and its constructor when it has one.  CONSTRUCTORS is read
off those rows.  Every constructor and expected_em1 take a plain int
order and refuse anything else, bools included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .graph import Graph, GraphError, _from_edges, _ints


def path_graph(n: int) -> Graph:
    """Path 0-1-...-(n-1); n >= 1."""
    _ints(n=n)
    if n < 1:
        raise GraphError(f"path needs n >= 1, got {n}")
    return _from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(n: int) -> Graph:
    """Star with center 0 and leaves 1..n-1; n >= 2."""
    _ints(n=n)
    if n < 2:
        raise GraphError(f"star needs n >= 2, got {n}")
    return _from_edges(n, [(0, v) for v in range(1, n)])


def cycle_graph(n: int) -> Graph:
    """Cycle 0-1-...-(n-1)-0; n >= 3."""
    _ints(n=n)
    if n < 3:
        raise GraphError(f"cycle needs n >= 3, got {n}")
    return _from_edges(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])


def s_n_m(n: int, m: int) -> Graph:
    """Star on n vertices plus edges from leaf 1 to m - n + 1 other leaves.

    Center is 0, the distinguished leaf is 1, its extra neighbors are
    2..(m - n + 2).  Preconditions: n >= 4, m >= n - 1, and the star must
    have enough other leaves: m - n + 1 <= n - 2.
    """
    _ints(n=n, m=m)
    if n < 4:
        raise GraphError(f"s_n_m needs n >= 4, got n={n}")
    extra = m - n + 1
    if extra < 0:
        raise GraphError(f"s_n_m needs m >= n - 1, got n={n}, m={m}")
    if extra > n - 2:
        raise GraphError(
            f"s_n_m(n={n}, m={m}) needs {extra} extra leaves, only {n - 2} exist"
        )
    edges = [(0, v) for v in range(1, n)]
    edges += [(1, v) for v in range(2, 2 + extra)]
    return _from_edges(n, edges)


def s_n_k4(n: int) -> Graph:
    """4-clique on 0..3 with n - 4 pendants attached to vertex 0; n >= 4."""
    _ints(n=n)
    if n < 4:
        raise GraphError(f"s_n_k4 needs n >= 4, got {n}")
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    edges += [(0, v) for v in range(4, n)]
    return _from_edges(n, edges)


@dataclass(frozen=True)
class ReferenceValue:
    """Registered closed form for em1 of a named family, and the family's
    constructor where it has one."""

    symbol: str
    min_n: int
    formula: Callable[[int], int]
    provenance: str
    note: str
    build: Callable[[int], Graph] | None = None


_REFERENCES = {
    r.symbol: r
    for r in (
        ReferenceValue("path", 3, lambda n: 4 * n - 10, "derived", "path P_n", path_graph),
        ReferenceValue(
            "star", 2, lambda n: (n - 1) * (n - 2) ** 2, "derived", "star S_n",
            star_graph,
        ),
        ReferenceValue("cycle", 3, lambda n: 4 * n, "derived", "cycle C_n", cycle_graph),
        ReferenceValue(
            "snm1", 4, lambda n: n**3 - 5 * n**2 + 12 * n - 6, "derived",
            "s_n_m(n, n): unicyclic maximizer", lambda n: s_n_m(n, n),
        ),
        ReferenceValue(
            "snm2", 4, lambda n: n**3 - 5 * n**2 + 16 * n + 4, "theorem-3",
            "s_n_m(n, n+1): bicyclic maximizer", lambda n: s_n_m(n, n + 1),
        ),
        ReferenceValue(
            "snm3", 5, lambda n: n**3 - 5 * n**2 + 20 * n + 32, "theorem-5",
            "s_n_m(n, n+2): tricyclic co-maximizer", lambda n: s_n_m(n, n + 2),
        ),
        ReferenceValue(
            "snk4", 4, lambda n: n**3 - 5 * n**2 + 20 * n + 32, "theorem-5",
            "s_n_k4(n): tricyclic co-maximizer", s_n_k4,
        ),
        ReferenceValue(
            "tri_candidate_1", 4, lambda n: n**3 - 5 * n**2 + 16 * n + 18,
            "theorem-5-proof", "reference only, no constructor",
        ),
        ReferenceValue(
            "tri_candidate_2", 4, lambda n: n**3 - 5 * n**2 + 20 * n - 10,
            "theorem-5-proof", "reference only, no constructor",
        ),
        ReferenceValue(
            "tri_candidate_3", 4, lambda n: n**3 - 5 * n**2 + 20 * n + 2,
            "theorem-5-proof", "reference only, no constructor",
        ),
        ReferenceValue(
            "tri_candidate_4", 4, lambda n: n**3 - 9 * n**2 + 32 * n + 60,
            "theorem-5-proof", "reference only, no constructor",
        ),
        ReferenceValue(
            "bicyclic_floor", 4, lambda n: 4 * n + 34,
            "theorem-3", "lower reference, attainment reported by enumeration",
        ),
        ReferenceValue(
            "tricyclic_floor", 4, lambda n: 4 * n + 68,
            "theorem-4", "lower reference, attainment reported by enumeration",
        ),
    )
}

FAMILY_SYMBOLS = tuple(sorted(_REFERENCES))


def expected_em1(symbol: str, n: int) -> int:
    """Registered closed-form em1 value for the named family at order n."""
    ref = reference(symbol)
    _ints(n=n)
    if n < ref.min_n:
        raise GraphError(f"{symbol} is registered for n >= {ref.min_n}, got {n}")
    return ref.formula(n)


def reference(symbol: str) -> ReferenceValue:
    if symbol not in FAMILY_SYMBOLS:
        raise GraphError(f"unknown family symbol {symbol!r}, known: {FAMILY_SYMBOLS}")
    return _REFERENCES[symbol]


# Constructors for the symbols that have one; m is a function of n here.
CONSTRUCTORS: dict[str, Callable[[int], Graph]] = {
    r.symbol: r.build for r in _REFERENCES.values() if r.build is not None
}
