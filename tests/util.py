"""Brute-force reference implementations the tests check the package against.

Everything here but iter_connected is deliberately naive and
independent of the package internals: subsets via itertools,
connectivity via BFS over dicts, index values straight from the
definitions.  iter_connected streams the labeled kernel walk, whose
counts labeled_connected_counts pins.
"""

from itertools import combinations
from math import comb

from zagreb import Graph, _kernel, make_graph
from zagreb.graph6 import graph_of_mask


def all_pairs(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def bf_connected(n, m):
    """Every connected labeled graph with n vertices and m edges."""
    out = []
    for chosen in combinations(all_pairs(n), m):
        adj = {v: set() for v in range(n)}
        for u, v in chosen:
            adj[u].add(v)
            adj[v].add(u)
        seen = {0}
        stack = [0]
        while stack:
            w = stack.pop()
            for x in adj[w]:
                if x not in seen:
                    seen.add(x)
                    stack.append(x)
        if len(seen) == n:
            out.append(make_graph(n, chosen))
    return out


def bf_connected_all_m(n):
    full = n * (n - 1) // 2
    out = []
    for m in range(max(n - 1, 0), full + 1):
        out.extend(bf_connected(n, m))
    return out


def naive_em1(g: Graph) -> int:
    return sum((g.degree(u) + g.degree(v) - 2) ** 2 for u, v in g.edges)


def naive_em2(g: Graph) -> int:
    es = g.edges
    total = 0
    for i in range(len(es)):
        a, b = es[i]
        for j in range(i + 1, len(es)):
            c, d = es[j]
            if a in (c, d) or b in (c, d):
                total += (g.degree(a) + g.degree(b) - 2) * (
                    g.degree(c) + g.degree(d) - 2
                )
    return total


def naive_m1(g: Graph) -> int:
    return sum(g.degree(v) ** 2 for v in range(g.n))


def naive_m2(g: Graph) -> int:
    return sum(g.degree(u) * g.degree(v) for u, v in g.edges)


def random_graph(rng, n_max=8) -> Graph:
    """Arbitrary simple graph, not necessarily connected."""
    n = rng.randint(1, n_max)
    edges = [e for e in all_pairs(n) if rng.random() < 0.4]
    return make_graph(n, edges)


def relabeled(g: Graph, perm) -> Graph:
    """g with vertex i renamed perm[i]."""
    return make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def labeled_connected_counts(n_max):
    """c[n][m]: connected labeled graphs with n vertices and m edges.

    Each of the C(C(n,2), m) graphs on n vertices is the component of
    vertex 0, with k vertices and j edges, next to any graph on the other
    n - k vertices, so
    c(n, m) = C(C(n,2), m) - sum_{k<n} C(n-1, k-1) sum_j c(k, j) C(C(n-k,2), m-j).
    """
    c = {}
    for n in range(1, n_max + 1):
        full = comb(n, 2)
        c[n] = [comb(full, m) for m in range(full + 1)]
        for k in range(1, n):
            rest, ways = comb(n - k, 2), comb(n - 1, k - 1)
            for m in range(full + 1):
                c[n][m] -= ways * sum(
                    c[k][j] * comb(rest, m - j) for j in range(min(m, comb(k, 2)) + 1)
                )
    return c


def iter_connected(n_max):
    """Every connected labeled graph with n <= n_max, all edge counts.

    The graphs come from the labeled kernel walk, in its order; they are
    the labeled corpus that the enumerated lemma corpus stands for.
    """
    for n in range(1, n_max + 1):
        for m in range(max(n - 1, 0), n * (n - 1) // 2 + 1):
            masks = []
            _kernel.visit_connected(n, m, 0, None, masks.append)
            for mask in masks:
                yield graph_of_mask(n, mask)
