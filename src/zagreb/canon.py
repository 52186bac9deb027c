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

The search reads neighbour lists, not a Graph: class generation hands it
graph6.mask_rows() of each candidate mask, canonical_form() a Graph's own
adjacency.  When the refinement gives every vertex its own colour, only
one labeling is compatible with it (vertex v at position colors[v]), so
the search returns that labeling's mask with a trivial group and no
generators, and places nothing (McKay & Piperno stop at a discrete
partition too).  Otherwise it places vertices position by position, the
candidates for a position being the members of its colour cell, and
keeps per vertex the column it would add: bit n-1-i of key[w] is set
while the vertex at position i is a neighbour of w.
"""

from __future__ import annotations

from math import factorial

from .graph import Graph, GraphError
from .graph6 import encode_mask

CANON_LIMIT = 10


def _refine_colors(n: int, adj) -> list[int]:
    # Iterated neighborhood refinement starting from degrees.  Color ids are
    # assigned by sorting signature tuples, so their order is an isomorphism
    # invariant (inductively: degrees are, and so is each refinement round).
    # A discrete round is final: the next one would rank by color alone.
    colors = list(map(len, adj))
    count = len(set(colors))
    while True:
        sigs = [
            (colors[v], tuple(sorted([colors[w] for w in adj[v]])))
            for v in range(n)
        ]
        order = sorted(set(sigs))
        rank = {s: i for i, s in enumerate(order)}
        new = [rank[s] for s in sigs]
        if len(order) in (count, n):
            return new
        colors, count = new, len(order)


def canonical_form(g: Graph) -> str:
    """graph6 line identifying the isomorphism class of g.

    Raises GraphError when g has more than CANON_LIMIT (10) vertices.
    """
    if g.n > CANON_LIMIT:
        raise GraphError(f"canonical form capped at {CANON_LIMIT} vertices, got {g.n}")
    return encode_mask(g.n, _canonical_search(g.n, g._adj)[0])


def _canonical_search(n: int, adj) -> tuple[int, int, list[tuple[int, ...]]]:
    """(canonical adjacency mask, |Aut|, generators) from one search.

    adj[v] lists the neighbours of vertex v of a graph on n vertices
    (graph6.mask_rows, or a Graph's own adjacency).  The generators are
    permutations of the canonical graph's vertices, perm[i] being the
    image of vertex i, that generate its automorphism group.  No size cap.
    """
    colors = _refine_colors(n, adj)
    if len(set(colors)) == n:
        # discrete: the only compatible labeling puts v at position colors[v]
        mask = 0
        for u in range(n):
            a = colors[u]
            for w in adj[u]:
                b = colors[w]
                if a < b:
                    mask |= 1 << (b * (b - 1) // 2 + a)
        return mask, 1, []
    # Positions are laid out in color order, which is invariant: cell[p]
    # lists the vertices of the color that position p must receive.
    members: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        members[colors[v]].append(v)
    cell = [members[c] for c in sorted(colors)]

    nbr = [sum([1 << w for w in adj[v]]) for v in range(n)]
    # Twin classes, ascending: equal open or equal closed neighbourhoods (no
    # vertex has both kinds of twin), keyed by the open neighbourhood mask
    # or the complement of the closed one.  prev[v] is the member before v
    # in its class, or n, which counts as always used: v may be placed only
    # once prev[v] is, so each class is placed in ascending order.
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(nbr[v], []).append(v)
        groups.setdefault(~(nbr[v] | 1 << v), []).append(v)
    twins = [c for c in groups.values() if len(c) > 1]
    prev = [n] * n
    for c in twins:
        for a, b in zip(c, c[1:]):
            prev[b] = a

    nbits = n * (n - 1) // 2
    placed: list[int] = []
    used = [False] * n + [True]
    # key[w] has bit n-1-i when the vertex at position i is adjacent to w, so
    # a candidate's column at depth d is key[v] >> (n - d)
    key = [0] * n
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
        shift = n - depth
        candidates = sorted([
            (key[v] >> shift, v)
            for v in cell[depth]
            if not used[v] and used[prev[v]]
        ])
        bit = 1 << (shift - 1)
        for col, v in candidates:
            # child carries tri[depth] bits: position i contributes i of them;
            # only strictly greater prefixes are cut, so no tying leaf is lost,
            # and the candidates after a cut one have greater columns
            child = (prefix << depth) | col
            if best is not None and child > (best >> (nbits - tri[depth])):
                break
            placed.append(v)
            used[v] = True
            for w in adj[v]:
                key[w] |= bit
            extend(depth + 1, child)
            for w in adj[v]:
                key[w] ^= bit
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
