"""Immutable simple graphs on vertex set {0..n-1} and the structural
operations the rest of the package builds on.

Graphs are undirected, loop-free and multi-edge-free.  Every operation
returns a fresh Graph; nothing mutates in place.  _from_edges is the one
code that lays out a Graph's fields, from pairs its caller vouches for;
make_graph, and so Graph(n, edges), validates its input and then builds
through _from_edges.
"""

from __future__ import annotations

from typing import Iterable


class GraphError(ValueError):
    """Invalid graph construction or operation precondition."""


class Graph:
    """A simple undirected graph, immutable after construction.

    Graph(n, edges) is make_graph(n, edges), which validates its input.
    Vertices are the integers 0..n-1; edges are stored as sorted pairs
    (u, v) with u < v, in lexicographic order.
    """

    __slots__ = ("n", "_adj", "_edges")

    n: int
    _adj: tuple[frozenset[int], ...]
    _edges: tuple[tuple[int, int], ...]

    def __new__(cls, n: int, edges: Iterable[tuple[int, int]]):
        return make_graph(n, edges)

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


def _from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    # Trusted fast path: pairs already valid, distinct, with u < v.
    adj: list[set[int]] = [set() for _ in range(n)]
    es = []
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
        es.append((u, v))
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "_adj", tuple(map(frozenset, adj)))
    object.__setattr__(g, "_edges", tuple(sorted(es)))
    return g


def _ints(**values) -> None:
    # plain ints only: a bool or a float would pass a bound check and go on
    for name, value in values.items():
        if type(value) is not int:
            raise GraphError(f"{name} must be an int, got {value!r}")


def _check_vertex(g: Graph, v: int) -> None:
    if type(v) is not int or v < 0 or v >= g.n:
        raise GraphError(f"vertex {v!r} out of range 0..{g.n - 1}")


def _reach(adj, start: int, inside) -> set[int]:
    """start plus every vertex it reaches stepping only onto vertices of inside."""
    seen = {start}
    stack = [start]
    while stack:
        for y in adj[stack.pop()]:
            if y in inside and y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def _kept(n: int, pairs, top) -> tuple[dict[int, int], list[tuple[int, int]]]:
    """New labels for 0..n-1, and pairs under them, each (low, high), in order.

    The vertices outside top keep their old order on 0, 1, ..., and those
    of top take the labels after them, in top's order.
    """
    label = {}
    for t in range(n):
        if t not in top:
            label[t] = len(label)
    for t in top:
        label[t] = len(label)
    out = []
    for a, b in pairs:
        a, b = label[a], label[b]
        out.append((a, b) if a < b else (b, a))
    return label, out


def make_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph on n >= 1 vertices from an iterable of pairs.

    Rejects entries that are not pairs, non-integer or out-of-range
    endpoints, loops and duplicate edges, naming the offending entry.
    """
    if type(n) is not int or n < 1:
        raise GraphError(f"need at least one vertex, got n={n!r}")
    try:
        edges = iter(edges)
    except TypeError:
        raise GraphError(f"edges must be an iterable of pairs, got {edges!r}") from None
    # in input order, so each adjacency set is filled as the caller listed it
    pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for pair in edges:
        try:
            u, v = pair
        except (TypeError, ValueError):
            raise GraphError(f"edge {pair!r} is not a pair of vertices") from None
        if type(u) is not int or type(v) is not int:
            raise GraphError(f"non-integer endpoint in edge {pair!r}")
        if u < 0 or u >= n or v < 0 or v >= n:
            raise GraphError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise GraphError(f"loop ({u}, {v}) not allowed")
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise GraphError(f"duplicate edge ({u}, {v})")
        seen.add((u, v))
        pairs.append((u, v))
    return _from_edges(n, pairs)


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
    return len(_reach(g._adj, 0, range(g.n))) == g.n


def cyclomatic_number(g: Graph) -> int:
    """m - n + 1 for a connected graph (0 = tree, 1 = unicyclic, ...)."""
    if not is_connected(g):
        raise GraphError("cyclomatic number is defined here for connected graphs only")
    return g.m - g.n + 1


def pendant_vertices(g: Graph) -> tuple[int, ...]:
    """Sorted tuple of degree-1 vertices."""
    return tuple(v for v in range(g.n) if len(g._adj[v]) == 1)


def brace(g: Graph) -> Graph:
    """Delete degree-1 vertices repeatedly until none remain.

    The result is relabeled by order-preserving compaction.  A vertex is
    deleted only while it has a live neighbor, so the fixed point is never
    empty; raises GraphError when it still has degree < 2 somewhere, i.e.
    when some component carries no cycle (trees in particular have none).
    """
    dead = set()
    deg = [len(g._adj[v]) for v in range(g.n)]
    stack = [v for v in range(g.n) if deg[v] == 1]
    while stack:
        v = stack.pop()
        if v in dead or deg[v] != 1:
            continue
        dead.add(v)
        for w in g._adj[v]:
            if w not in dead:
                deg[w] -= 1
                if deg[w] == 1:
                    stack.append(w)
    if any(deg[v] < 2 for v in range(g.n) if v not in dead):
        raise GraphError("brace undefined: some component carries no cycle")
    live = [e for e in g._edges if e[0] not in dead and e[1] not in dead]
    _, edges = _kept(g.n, live, dead)
    return _from_edges(g.n - len(dead), edges)


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
    # the fused vertex is u, on label n-2; v's label n-1 is left over
    pairs = [e for e in g._edges if u not in e and v not in e]
    pairs += [(x, u) for x in g._adj[u] | g._adj[v]]
    _, edges = _kept(g.n, pairs, (u, v))
    return _from_edges(g.n - 1, edges)


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
    for r in rows[1:]:
        if len(r) != 2:
            raise GraphError(f"edge line must be 'u v', got {r!r}")
    try:
        header = [int(t) for t in rows[0]]
        body = [(int(u), int(v)) for u, v in rows[1:]]
    except ValueError as exc:
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
