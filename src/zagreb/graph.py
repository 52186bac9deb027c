"""Immutable simple graphs on vertex set {0..n-1} and the structural
operations the rest of the package builds on.

Graphs are undirected, loop-free and multi-edge-free.  Every operation
returns a fresh Graph; nothing mutates in place.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable


class GraphError(ValueError):
    """Invalid graph construction or operation precondition."""


class Graph:
    """A simple undirected graph, immutable after construction.

    Use make_graph() to build one with validation.  Vertices are the
    integers 0..n-1; edges are stored as sorted pairs (u, v) with u < v,
    in lexicographic order.
    """

    __slots__ = ("n", "_adj", "_edges")

    n: int
    _adj: tuple[frozenset[int], ...]
    _edges: tuple[tuple[int, int], ...]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        g = make_graph(n, edges)
        object.__setattr__(self, "n", g.n)
        object.__setattr__(self, "_adj", g._adj)
        object.__setattr__(self, "_edges", g._edges)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def m(self) -> int:
        return len(self._edges)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    def neighbors(self, v: int) -> frozenset[int]:
        _check_vertex(self, v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        _check_vertex(self, v)
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        _check_vertex(self, u)
        _check_vertex(self, v)
        return v in self._adj[u]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self.n, self._edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _blessed(n: int, adj: list[Iterable[int]], edges: tuple[tuple[int, int], ...]) -> Graph:
    # Trusted fast path: callers guarantee consistent adj/edges, edges sorted.
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "_adj", tuple(map(frozenset, adj)))
    object.__setattr__(g, "_edges", edges)
    return g


def _from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    # Trusted fast path: pairs already valid, distinct, with u < v.
    adj: list[set[int]] = [set() for _ in range(n)]
    es = []
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
        es.append((u, v))
    return _blessed(n, adj, tuple(sorted(es)))


def _check_vertex(g: Graph, v: int) -> None:
    if not isinstance(v, int) or v < 0 or v >= g.n:
        raise GraphError(f"vertex {v!r} out of range 0..{g.n - 1}")


def make_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph on n >= 1 vertices from an iterable of pairs.

    Rejects out-of-range endpoints, loops and duplicate edges, naming the
    offending pair.
    """
    if not isinstance(n, int) or n < 1:
        raise GraphError(f"need at least one vertex, got n={n!r}")
    adj: list[set[int]] = [set() for _ in range(n)]
    es: list[tuple[int, int]] = []
    for pair in edges:
        u, v = pair
        if not (isinstance(u, int) and isinstance(v, int)):
            raise GraphError(f"non-integer endpoint in edge {pair!r}")
        if u < 0 or u >= n or v < 0 or v >= n:
            raise GraphError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise GraphError(f"loop ({u}, {v}) not allowed")
        if u > v:
            u, v = v, u
        if v in adj[u]:
            raise GraphError(f"duplicate edge ({u}, {v})")
        adj[u].add(v)
        adj[v].add(u)
        es.append((u, v))
    return _blessed(n, adj, tuple(sorted(es)))


def degree(g: Graph, v: int) -> int:
    """Number of neighbors of v."""
    return g.degree(v)


def edge_degree(g: Graph, u: int, v: int) -> int:
    """Degree of the edge uv: deg(u) + deg(v) - 2.  Requires uv in E."""
    if not g.has_edge(u, v):
        raise GraphError(f"({u}, {v}) is not an edge")
    return len(g._adj[u]) + len(g._adj[v]) - 2


def is_connected(g: Graph) -> bool:
    """True iff every vertex is reachable from vertex 0."""
    seen = bytearray(g.n)
    seen[0] = 1
    queue = deque([0])
    count = 1
    adj = g._adj
    while queue:
        w = queue.popleft()
        for x in adj[w]:
            if not seen[x]:
                seen[x] = 1
                count += 1
                queue.append(x)
    return count == g.n


def cyclomatic_number(g: Graph) -> int:
    """m - n + 1 for a connected graph (0 = tree, 1 = unicyclic, ...)."""
    if not is_connected(g):
        raise GraphError("cyclomatic number is defined here for connected graphs only")
    return g.m - g.n + 1


def pendant_vertices(g: Graph) -> tuple[int, ...]:
    """Sorted tuple of degree-1 vertices."""
    return tuple(v for v in range(g.n) if len(g._adj[v]) == 1)


def _drop_vertices(g: Graph, drop: set[int]) -> tuple[Graph, dict[int, int]]:
    # Order-preserving compaction of the kept vertices; returns (graph, old->new).
    keep = [v for v in range(g.n) if v not in drop]
    if not keep:
        raise GraphError("cannot drop every vertex")
    relabel = {old: new for new, old in enumerate(keep)}
    edges = [
        (relabel[u], relabel[v])
        for u, v in g._edges
        if u not in drop and v not in drop
    ]
    return _from_edges(len(keep), edges), relabel


def brace(g: Graph) -> Graph:
    """Delete degree-1 vertices repeatedly until none remain.

    The result is relabeled by order-preserving compaction.  Raises
    GraphError when the fixed point is empty or still has degree < 2
    somewhere, i.e. when some component carries no cycle (trees in
    particular have no brace).
    """
    alive = set(range(g.n))
    deg = [len(g._adj[v]) for v in range(g.n)]
    queue = deque(v for v in alive if deg[v] == 1)
    while queue:
        v = queue.popleft()
        if v not in alive or deg[v] != 1:
            continue
        alive.discard(v)
        for w in g._adj[v]:
            if w in alive:
                deg[w] -= 1
                if deg[w] == 1:
                    queue.append(w)
    if not alive:
        raise GraphError("brace is empty: the graph is acyclic")
    if any(deg[v] < 2 for v in alive):
        raise GraphError("brace undefined: some component carries no cycle")
    result, _ = _drop_vertices(g, set(range(g.n)) - alive)
    return result


def fuse(g: Graph, u: int, v: int) -> Graph:
    """Identify the non-adjacent vertices u and v.

    The fused vertex takes the highest label of the result (n-2 vertices
    keep their relative order before it) and is adjacent to the union of
    the two old neighborhoods.  n decreases by one.
    """
    _check_vertex(g, u)
    _check_vertex(g, v)
    if u == v:
        raise GraphError("cannot fuse a vertex with itself")
    if g.has_edge(u, v):
        raise GraphError(f"cannot fuse adjacent vertices ({u}, {v})")
    sub, relabel = _drop_vertices(g, {u, v})
    w = sub.n  # fused vertex label in the result
    merged = (g._adj[u] | g._adj[v]) - {u, v}
    edges = list(sub._edges) + [(relabel[x], w) for x in sorted(merged)]
    return _from_edges(sub.n + 1, edges)


def line_graph(g: Graph) -> Graph:
    """Graph on the edges of g, two adjacent iff they share an endpoint.

    Vertex i of the result is g.edges[i] (lexicographic order).  Requires
    at least one edge.
    """
    m = g.m
    if m == 0:
        raise GraphError("line graph of an edgeless graph is undefined")
    es = g._edges
    out = []
    for i in range(m):
        ui, vi = es[i]
        for j in range(i + 1, m):
            uj, vj = es[j]
            if ui == uj or ui == vj or vi == uj or vi == vj:
                out.append((i, j))
    return _from_edges(m, out)


def read_edge_list(text: str) -> Graph:
    """Parse the fixture format: first line "n m", then one "u v" per edge.

    Blank lines and lines starting with '#' are skipped.
    """
    rows = [
        line.split()
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not rows:
        raise GraphError("empty edge-list text")
    try:
        header = [int(t) for t in rows[0]]
        body = [(int(r[0]), int(r[1])) for r in rows[1:]]
    except (ValueError, IndexError) as exc:
        raise GraphError(f"malformed edge-list text: {exc}") from None
    if len(header) != 2:
        raise GraphError(f"header must be 'n m', got {rows[0]!r}")
    n, m = header
    if len(body) != m:
        raise GraphError(f"header promises {m} edges, found {len(body)}")
    return make_graph(n, body)


def write_edge_list(g: Graph) -> str:
    """Inverse of read_edge_list."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g._edges)
    return "\n".join(lines) + "\n"
