"""The four degree-shifting rewrites.

Each operation checks that g is a Graph and validates its arguments as
vertices, then checks its site by reading the adjacency sets directly;
III checks its subtree's connectivity with graph._reach.  It writes the
rewritten edge list in g's own labels and scores that list (em1 does not
change under relabeling): I and IV keep every label, III threads its
chain through the subtree's own labels in ascending order, and II keeps
the fused vertex on u's label and reuses v's for the fresh pendant.  The
RewriteResult builds the relabeled edges, the relabel map, its graph
and the index of the input (em1_before) only on first read, so a caller
that reads em1_after alone, as the lemma sweep does, builds no Graph,
no label map and no relabeled pair.  Operations I, II and IV push that
index strictly up; operation III pulls it strictly down.
find_applicable lists every valid site, reading the adjacency the same
way, so property sweeps can cover whole corpora.  Callers need no
prefilter: a finder returns [] on a graph without the pendant (I, III,
IV) or degree-2 vertex (II) that each of its sites needs.

One table maps each kind to its operation, the RewriteSpec fields that
operation takes (in argument order) and its site finder; KINDS,
apply_rewrite (which rejects a field its kind does not take) and
find_applicable all read it.

Two site conditions here are stricter than the loosest reading of the
construction sketches they come from: operation II requires the two
endpoints to have disjoint neighborhoods off the path (a shared one
would merge parallel edges when the endpoints fuse, changing the edge
count), and operation IV rejects sites where the endpoints have equal
core neighborhoods and the receiver has no pendants (the rewrite would
only swap the two vertices, leaving the index unchanged).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from operator import countOf

from .graph import Graph, GraphError, _from_edges, _kept, _reach
from .indices import INDEX_FUNCS, degrees, em1

class RewriteError(GraphError):
    """A rewrite was requested at a site that violates its preconditions."""


@dataclass(frozen=True)
class RewriteSpec:
    """Site parameters for one rewrite; fields unused by the kind stay None."""

    kind: str
    u: int | None = None
    v: int | None = None
    path: tuple[int, ...] | None = None
    root: int | None = None
    subtree: tuple[int, ...] | None = None
    reattach: int | None = None

    def params(self) -> dict:
        out = {"kind": self.kind}
        for name in ("u", "v", "path", "root", "subtree", "reattach"):
            val = getattr(self, name)
            if val is not None:
                out[name] = list(val) if isinstance(val, tuple) else val
        return out


@dataclass(frozen=True, init=False)
class RewriteResult:
    """One rewrite of source, scored in source's own labels.

    pairs is the rewritten edge list on source.n vertices, written in
    source's labels with either end first, and em1_after is em1 of that
    list, which no relabeling changes.  The result's labels follow one
    rule, graph._kept: the vertices outside top keep their order on
    0, 1, ..., and those of top take the labels after them in top's
    order.  The vertices of fused survive as one, on fused[0]'s label.

    edges (pairs under the result's labels, each u < v, in the same list
    order), relabel (old label -> new label of every survivor), graph
    and em1_before are built on first read and kept.
    """

    source: Graph
    pairs: list[tuple[int, int]]
    em1_after: int
    top: tuple[int, ...]
    fused: tuple[int, ...]

    def __init__(
        self,
        source: Graph,
        pairs: list[tuple[int, int]],
        em1_after: int,
        top: tuple[int, ...],
        fused: tuple[int, ...],
    ) -> None:
        # one dict update, where the frozen dataclass's own __init__ would
        # pay object.__setattr__ per field; assignment still raises
        vars(self).update(source=source, pairs=pairs, em1_after=em1_after, top=top, fused=fused)

    @cached_property
    def _relabeled(self) -> tuple[dict[int, int], list[tuple[int, int]]]:
        return _kept(self.source.n, self.pairs, self.top)

    @property
    def edges(self) -> list[tuple[int, int]]:
        return self._relabeled[1]

    @cached_property
    def relabel(self) -> dict[int, int]:
        label = self._relabeled[0]
        out = dict(islice(label.items(), self.source.n - len(self.top)))
        for x in self.fused:
            out[x] = label[self.fused[0]]
        return out

    @cached_property
    def graph(self) -> Graph:
        return _from_edges(self.source.n, self.edges)

    @cached_property
    def em1_before(self) -> int:
        return em1(self.source)


def _graph(g) -> None:
    if not isinstance(g, Graph):
        raise RewriteError(f"{g!r} is not a Graph")


def _vertex(g: Graph, x, role: str) -> int:
    if type(x) is not int or not 0 <= x < g.n:
        raise RewriteError(f"{role}={x!r} is not a vertex of an n={g.n} graph")
    return x


def _sequence(xs, op: str, field: str) -> tuple:
    try:
        return tuple(xs)
    except TypeError:
        raise RewriteError(
            f"operation {op}: {field}={xs!r} is not a sequence of vertices"
        ) from None


def operation_i(g: Graph, u: int, v: int) -> RewriteResult:
    """Move every pendant neighbor of u onto its neighbor v."""
    _graph(g)
    _vertex(g, u, "u")
    _vertex(g, v, "v")
    adj = g._adj
    if v not in adj[u]:
        raise RewriteError(f"operation I: ({u},{v}) is not an edge")
    if len(adj[v]) < 2:
        raise RewriteError(f"operation I: v={v} needs degree >= 2, has {len(adj[v])}")
    pendants = []
    for w in adj[u]:
        if w == v:
            continue
        if len(adj[w]) != 1:
            raise RewriteError(
                f"operation I: neighbor {w} of u={u} is neither v nor a pendant"
            )
        pendants.append(w)
    if not pendants:
        raise RewriteError(f"operation I: u={u} has no pendant neighbors")
    return _move_pendants(g, pendants, v)


def _rewritten(g: Graph, edges, top=(), fused=()) -> RewriteResult:
    # every operation keeps n, and em1 ignores labels: the list is scored
    # as the operation wrote it, in g's labels, without a Graph
    after = INDEX_FUNCS["em1"](degrees(g.n, edges), edges)
    return RewriteResult(g, edges, after, top, fused)


def _move_pendants(g: Graph, pendants, target: int) -> RewriteResult:
    # reattach each pendant vertex to target; labels stay put
    moved = set(pendants)
    edges = [e for e in g._edges if e[0] not in moved and e[1] not in moved]
    edges += [(target, w) for w in pendants]
    return _rewritten(g, edges)


def operation_ii(g: Graph, path) -> RewriteResult:
    """Collapse a suspended path: fuse its endpoints, pendant its interior.

    The path edges go away; the endpoints fuse into one vertex carrying
    the former interior vertices plus one fresh vertex as pendants, so n
    and m are both preserved.
    """
    _graph(g)
    p = _sequence(path, "II", "path")
    if len(p) < 3:
        raise RewriteError(f"operation II: path needs >= 3 vertices, got {len(p)}")
    for x in p:
        _vertex(g, x, "path vertex")
    if len(set(p)) != len(p):
        raise RewriteError("operation II: path repeats a vertex")
    adj = g._adj
    for a, b in zip(p, p[1:]):
        if b not in adj[a]:
            raise RewriteError(f"operation II: ({a},{b}) is not an edge")
    for w in p[1:-1]:
        if len(adj[w]) != 2:
            raise RewriteError(
                f"operation II: interior {w} has degree {len(adj[w])}, needs exactly 2"
            )
    u, v = p[0], p[-1]
    if v in adj[u]:
        raise RewriteError(f"operation II: endpoints {u} and {v} are adjacent")
    off_u = adj[u] - {p[1]}
    off_v = adj[v] - {p[-2]}
    if len(off_u) < 2 or len(off_v) < 2:
        raise RewriteError(
            "operation II: each endpoint needs >= 2 neighbors off the path"
        )
    shared = off_u & off_v
    if shared:
        raise RewriteError(
            f"operation II: endpoints share off-path neighbors {sorted(shared)}; "
            f"fusing would merge parallel edges"
        )

    # u is the fused vertex and v's label the fresh pendant; on read they
    # take n-2 and n-1, as graph.fuse places its fused vertex
    edges = [e for e in g._edges if u not in e and v not in e]
    for a, b in zip(p[1:-2], p[2:-1]):
        edges.remove((a, b) if a < b else (b, a))
    edges += [(x, u) for x in off_u | off_v | set(p[1:-1])]
    edges.append((u, v))
    return _rewritten(g, edges, (u, v), (u, v))


def operation_iii(g: Graph, root: int, subtree, reattach: int) -> RewriteResult:
    """Straighten a hanging subtree at root into a path toward reattach.

    The non-root subtree vertices and the edge root-reattach go away; a
    path of equally many fresh vertices is threaded from root to
    reattach, preserving n and m.
    """
    _graph(g)
    _vertex(g, root, "root")
    sub = _sequence(subtree, "III", "subtree")
    for x in sub:
        _vertex(g, x, "subtree vertex")
    s = set(sub)
    if len(s) != len(sub):
        raise RewriteError("operation III: subtree repeats a vertex")
    if not s:
        raise RewriteError("operation III: subtree is empty")
    if root in s:
        raise RewriteError(f"operation III: root {root} listed inside the subtree")
    y = _vertex(g, reattach, "reattach")
    if y in s:
        raise RewriteError(f"operation III: reattach {y} lies inside the subtree")
    adj = g._adj
    if y not in adj[root]:
        raise RewriteError(f"operation III: ({root},{y}) is not an edge")
    inner = 0
    for x in s:
        for w in adj[x]:
            if w in s:
                inner += 1
            elif w != root:
                raise RewriteError(
                    f"operation III: subtree vertex {x} touches {w} outside it"
                )
    ties = len(adj[root] & s)
    edge_count = inner // 2 + ties
    if edge_count != len(s):
        raise RewriteError(
            "operation III: subtree plus root must induce a tree "
            f"({edge_count} edges on {len(s) + 1} vertices)"
        )
    if len(_reach(adj, root, s)) != len(s) + 1:
        raise RewriteError("operation III: subtree plus root must induce a tree")
    outside = len(adj[root]) - ties
    if outside < 2:
        raise RewriteError(
            f"operation III: root {root} needs >= 2 neighbors outside the subtree, "
            f"has {outside}"
        )

    # the chain runs through the subtree's own labels in ascending order,
    # which on read take n-k..n-1 after the kept vertices
    top = tuple(sorted(s))
    edges = [e for e in g._edges if e[0] not in s and e[1] not in s]
    edges.remove((root, y) if root < y else (y, root))
    stops = [root, *top, y]
    edges += zip(stops, stops[1:])
    return _rewritten(g, edges, top)


def operation_iv(g: Graph, u: int, v: int) -> RewriteResult:
    """Move every pendant of v onto u when u's core neighborhood covers v's."""
    _graph(g)
    _vertex(g, u, "u")
    _vertex(g, v, "v")
    if u == v:
        raise RewriteError("operation IV: u and v must differ")
    adj = g._adj
    if v in adj[u]:
        raise RewriteError(f"operation IV: {u} and {v} must not be adjacent")
    core_u = {w for w in adj[u] if len(adj[w]) > 1}
    core_v = {w for w in adj[v] if len(adj[w]) > 1}
    pend_u = [w for w in adj[u] if len(adj[w]) == 1]
    pend_v = [w for w in adj[v] if len(adj[w]) == 1]
    if not core_v:
        raise RewriteError(f"operation IV: v={v} has no non-pendant neighbor")
    if not core_v <= core_u:
        missing = sorted(core_v - core_u)
        raise RewriteError(
            f"operation IV: core neighbors {missing} of v={v} are not neighbors of u={u}"
        )
    if not pend_v:
        raise RewriteError(f"operation IV: v={v} has no pendants to move")
    if len(core_u) == len(core_v) and not pend_u:
        raise RewriteError(
            f"operation IV: u={u} and v={v} have equal core neighborhoods and u has "
            f"no pendants; the move would only swap the two vertices"
        )
    return _move_pendants(g, pend_v, u)


def _sites_i(g: Graph) -> list[RewriteSpec]:
    adj = g._adj
    out = []
    for u in range(g.n):
        nb = adj[u]
        if len(nb) < 2:
            continue
        anchors = [w for w in nb if len(adj[w]) > 1]
        if len(anchors) == 1:
            out.append(RewriteSpec(kind="I", u=u, v=anchors[0]))
    return out


def _sites_ii(g: Graph) -> list[RewriteSpec]:
    # walk out from each vertex a of degree >= 3 through each neighbor along
    # degree-2 vertices to the first vertex b of another degree; each path is
    # kept once, from its lower end, and a cycle back to a (b == a) is dropped
    adj = g._adj
    out = []
    for a in range(g.n):
        if len(adj[a]) < 3:
            continue
        for x in adj[a]:
            path, prev, b = [a], a, x
            while len(adj[b]) == 2:
                path.append(b)
                y, z = adj[b]
                prev, b = b, z if y == prev else y
            if len(path) < 2 or b <= a or len(adj[b]) < 3 or b in adj[a]:
                continue
            if (adj[a] - {x}).isdisjoint(adj[b] - {prev}):
                out.append(RewriteSpec(kind="II", path=(*path, b)))
    out.sort(key=lambda s: s.path)
    return out


def _sites_iii(g: Graph) -> list[RewriteSpec]:
    adj = g._adj
    if 1 not in map(len, adj):
        return []  # a tree hanging at root has a leaf besides root: a pendant
    out = []
    for root in range(g.n):
        nb = adj[root]
        if len(nb) < 3:
            continue  # one edge feeds the subtree, two must stay outside
        # the parts of g - root that root's own edges reach; a part is
        # connected and holds a neighbor, so its degree sum 2*inner + ties
        # is 2*|part| - 1 exactly when it is a tree tied to root by one edge
        rest = set(range(g.n)) - {root}
        comps = []
        for x in nb:
            if x in rest:
                part = _reach(adj, x, rest)
                rest -= part
                if sum(len(adj[w]) for w in part) == 2 * len(part) - 1:
                    comps.append(tuple(sorted(part)))
        comps.sort()
        k = len(comps)
        for pick in range(1, 1 << k):
            chosen = [comps[i] for i in range(k) if pick >> i & 1]
            if len(nb) - len(chosen) < 2:
                continue
            s = tuple(sorted(x for comp in chosen for x in comp))
            for y in sorted(nb.difference(s)):
                out.append(RewriteSpec(kind="III", root=root, subtree=s, reattach=y))
    return out


def _sites_iv(g: Graph) -> list[RewriteSpec]:
    adj = g._adj
    pend = [len(nb) == 1 for nb in adj]
    core = [frozenset(w for w in nb if not pend[w]) for nb in adj]
    pend_ct = [len(nb) - len(c) for nb, c in zip(adj, core)]
    # only a vertex with pendants and a core can give its pendants away
    donors = [v for v in range(g.n) if pend_ct[v] and core[v]]
    out = []
    for u in range(g.n):
        for v in donors:
            if u == v or v in adj[u] or not core[v] <= core[u]:
                continue
            if len(core[u]) == len(core[v]) and not pend_ct[u]:
                continue
            out.append(RewriteSpec(kind="IV", u=u, v=v))
    return out


# kind -> (operation, its RewriteSpec fields in argument order, site finder)
_OPERATIONS = {
    "I": (operation_i, ("u", "v"), _sites_i),
    "II": (operation_ii, ("path",), _sites_ii),
    "III": (operation_iii, ("root", "subtree", "reattach"), _sites_iii),
    "IV": (operation_iv, ("u", "v"), _sites_iv),
}
KINDS = tuple(_OPERATIONS)


def _operation(kind):
    if kind not in KINDS:
        raise RewriteError(f"unknown rewrite kind {kind!r}, choose from {KINDS}")
    return _OPERATIONS[kind]


def apply_rewrite(g: Graph, spec: RewriteSpec) -> RewriteResult:
    """Dispatch one RewriteSpec against its operation, which checks g."""
    if not isinstance(spec, RewriteSpec):
        raise RewriteError(f"{spec!r} is not a RewriteSpec")
    op, fields, _ = _operation(spec.kind)
    given = vars(spec)
    args = [given[f] for f in fields]
    # valid: every field taken is set and every other one but kind is None;
    # the offending name is searched for only when that count is off
    if None in args or countOf(given.values(), None) != len(given) - 1 - len(fields):
        for f in fields:
            if given[f] is None:
                raise RewriteError(f"operation {spec.kind} needs {f!r}")
        for f, val in given.items():
            if val is not None and f != "kind" and f not in fields:
                raise RewriteError(f"operation {spec.kind} does not take {f!r}")
    return op(g, *args)


def find_applicable(g: Graph, kind: str) -> list[RewriteSpec]:
    """Every site where the operation's preconditions hold, in label order."""
    _, _, sites = _operation(kind)
    _graph(g)
    return sites(g)
