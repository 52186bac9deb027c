"""Canonical forms for small graphs.

canonical_form() returns the graph6 line of a canonical relabeling: the
one whose adjacency bit string (in column order) is minimal over all
relabelings compatible with the iterated degree partition.  Two graphs
get the same string iff they are isomorphic.  The search is exponential
in the worst case, hence the size cap.

The search prunes only prefixes strictly greater than the best so far,
so it reaches every labeling that attains the minimum, bar the twin
orderings below.  Those labelings form one coset of Aut(g): every
automorphism keeps the (invariant) partition, and two labelings give the
same bit string iff they differ by an automorphism.

Twins, two vertices with equal open or equal closed neighbourhoods, are
swapped by an automorphism that fixes every other vertex, so the twin
classes give a subgroup T = prod Sym(class) of Aut(g), normal because
automorphisms map twin classes onto twin classes.  The search places
the members of each twin class in ascending order only.  Sorting twins
keeps the bit string, so the minimum is unchanged, and the search meets
exactly one minimal labeling per coset of T: |Aut(g)| is the number of
tying leaves times prod |class|!, which the class enumerator needs for
orbit sizes (McKay & Piperno, "Practical graph isomorphism, II",
J. Symb. Comput. 60, 2014).  The same search returns generators of the
canonical graph's automorphism group: the transpositions of consecutive
twins, which generate T, and for each tying leaf after the first the
automorphism that carries the first (canonical) labeling onto it, which
together meet every coset of T.
"""

from __future__ import annotations

from math import factorial

from .graph import Graph, GraphError
from .graph6 import encode_mask

CANON_LIMIT = 10


def _refine_colors(g: Graph) -> list[int]:
    # Iterated neighborhood refinement starting from degrees.  Color ids are
    # assigned by sorting signature tuples, so their order is an isomorphism
    # invariant (inductively: degrees are, and so is each refinement round).
    adj = g._adj
    colors = list(map(len, adj))
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[w] for w in adj[v])))
            for v in range(g.n)
        ]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [rank[s] for s in sigs]
        if len(set(new)) == len(set(colors)):
            return new
        colors = new


def canonical_form(g: Graph) -> str:
    """graph6 line identifying the isomorphism class of g.

    Raises GraphError when g has more than CANON_LIMIT (10) vertices.
    """
    if g.n > CANON_LIMIT:
        raise GraphError(f"canonical form capped at {CANON_LIMIT} vertices, got {g.n}")
    return encode_mask(g.n, _canonical_search(g)[0])


def _canonical_search(g: Graph) -> tuple[int, int, list[tuple[int, ...]]]:
    """(canonical adjacency mask, |Aut(g)|, generators) from one search.

    The generators are permutations of the canonical graph's vertices,
    perm[i] being the image of vertex i, that generate its automorphism
    group.  No size cap.
    """
    n = g.n
    colors = _refine_colors(g)
    # Position p must receive a vertex of class block_of[p]; blocks are laid
    # out in color order, which is invariant.
    block_of = sorted(colors)

    adj = g._adj
    # Twin classes, ascending: equal open or equal closed neighbourhoods (no
    # vertex has both kinds of twin).  prev[v] is the member before v in its
    # class, or n, which counts as always used: v may be placed only once
    # prev[v] is, so each class is placed in ascending order.
    groups: dict[tuple[bool, frozenset[int]], list[int]] = {}
    for v in range(n):
        groups.setdefault((False, adj[v]), []).append(v)
        groups.setdefault((True, adj[v] | {v}), []).append(v)
    twins = [c for c in groups.values() if len(c) > 1]
    prev = [n] * n
    for c in twins:
        for a, b in zip(c, c[1:]):
            prev[b] = a

    nbits = n * (n - 1) // 2
    placed: list[int] = []
    used = [False] * n + [True]
    best: int | None = None
    leaves: list[list[int]] = []  # the labelings that attain best
    # prefix lengths: after filling position k there are k(k+1)/2 bits
    tri = [k * (k + 1) // 2 for k in range(n + 1)]

    def extend(depth: int, prefix: int) -> None:
        nonlocal best, leaves
        if depth == n:
            if best is None or prefix < best:
                best = prefix
                leaves = [placed[:]]
            elif prefix == best:
                leaves.append(placed[:])
            return
        want = block_of[depth]
        candidates = []
        for v in range(n):
            if not used[v] and colors[v] == want and used[prev[v]]:
                col = 0
                for i, w in enumerate(placed):
                    if v in adj[w]:
                        col |= 1 << (depth - 1 - i)
                candidates.append((col, v))
        candidates.sort()
        for col, v in candidates:
            # child carries tri[depth] bits: position i contributes i of them;
            # only strictly greater prefixes are cut, so no tying leaf is lost
            child = (prefix << depth) | col
            if best is not None and child > (best >> (nbits - tri[depth])):
                continue
            placed.append(v)
            used[v] = True
            extend(depth + 1, child)
            placed.pop()
            used[v] = False

    extend(0, 0)
    assert best is not None
    # prefix bit for edge ordinal j sits at shift nbits-1-j; flip to mask order
    mask = int(f"{best:0{nbits}b}"[::-1], 2)
    # canonical vertex pos[v] is g's vertex v; leaf q puts q[i] at position i,
    # which gives the same graph, so i -> pos[q[i]] is an automorphism of it
    pos = [0] * n
    for i, v in enumerate(leaves[0]):
        pos[v] = i
    gens = [tuple(pos[v] for v in q) for q in leaves[1:]]
    twin_order = 1
    for c in twins:
        twin_order *= factorial(len(c))
        for a, b in zip(c, c[1:]):
            swap = list(range(n))
            swap[pos[a]], swap[pos[b]] = pos[b], pos[a]
            gens.append(tuple(swap))
    return mask, len(leaves) * twin_order, gens
