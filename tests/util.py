"""Brute-force reference implementations the tests check the package against.

Everything here but iter_connected is deliberately naive and
independent of the package internals: subsets via itertools,
connectivity via BFS over dicts, index values straight from the
definitions.  iter_connected streams the labeled kernel walk, whose
counts labeled_connected_counts pins.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, gcd, lcm, prod

from zagreb import Graph, _kernel, make_graph
from zagreb.graph6 import graph_of_mask


def all_pairs(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def bf_connected(n, m):
    """Every connected labeled graph with n vertices and m edges."""
    return [make_graph(n, edges) for edges in bf_connected_edges(n, m)]


def bf_connected_edges(n, m):
    """Edge sets of bf_connected(n, m) in the same order, no Graph built."""
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
            out.append(chosen)
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


def _partitions(n, top=None):
    # every partition of n into parts <= top, largest part first
    if n == 0:
        yield []
        return
    for part in range(min(n, top or n), 0, -1):
        for rest in _partitions(n - part, part):
            yield [part] + rest


def _mobius(k):
    sign, p = 1, 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if k > 1 else sign


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def unlabeled_connected_counts(n_max):
    """u[n][m]: connected unlabeled graphs with n vertices and m edges.

    Burnside's lemma counts all graphs on n vertices by edges: a
    permutation fixes the edge sets that are unions of its cycles on
    vertex pairs, and n!/z of the n! permutations have a cycle type whose
    centralizer has order z, so
    g_n(x) = sum over cycle types of (1/z) prod_(pair cycles) (1 + x^len).
    A vertex cycle of length l gives (l-1)//2 pair cycles of length l,
    plus one of length l/2 when l is even; two vertex cycles of lengths a
    and b give gcd(a, b) pair cycles of length lcm(a, b).  A graph is a
    multiset of connected ones, so with L = log(1 + sum_n g_n y^n) the
    Moebius-inverted Euler transform gives the connected part:
    u_n(x) = sum_(k | n) mu(k)/k L_(n/k)(x^k).  Exact Fractions throughout.
    Harary & Palmer, Graphical Enumeration (1973), ch. 4; OEIS A054924.
    """
    g = {}
    for n in range(1, n_max + 1):
        g[n] = [Fraction(0)] * (comb(n, 2) + 1)
        for parts in _partitions(n):
            lengths = []
            for i, a in enumerate(parts):
                lengths += [a] * ((a - 1) // 2)
                if a % 2 == 0:
                    lengths.append(a // 2)
                for b in parts[i + 1:]:
                    lengths += [lcm(a, b)] * gcd(a, b)
            fixed = [1]
            for length in lengths:
                fixed = _poly_mul(fixed, [1] + [0] * (length - 1) + [1])
            z = prod(part**k * factorial(k) for part, k in Counter(parts).items())
            for m, ways in enumerate(fixed):
                g[n][m] += Fraction(ways, z)
    # log of the series in y: n g_n = sum_(k=1..n) k L_k g_(n-k), g_0 = 1
    log = {}
    for n in range(1, n_max + 1):
        log[n] = g[n][:]
        for k in range(1, n):
            for m, coef in enumerate(_poly_mul(log[k], g[n - k])):
                log[n][m] -= Fraction(k, n) * coef
    u = {}
    for n in range(1, n_max + 1):
        row = [Fraction(0)] * (comb(n, 2) + 1)
        for k in range(1, n + 1):
            if n % k == 0 and _mobius(k):
                for m, coef in enumerate(log[n // k]):
                    row[k * m] += Fraction(_mobius(k), k) * coef
        assert all(c.denominator == 1 for c in row), n
        u[n] = [int(c) for c in row]
    return u


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
