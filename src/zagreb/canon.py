"""Canonical forms for small graphs.

canonical_form() returns the graph6 line of a canonical relabeling: the
one whose adjacency bit string (in column order) is minimal over all
relabelings compatible with the iterated degree partition.  Two graphs
get the same string iff they are isomorphic.  The search is exponential
in the worst case, hence the size cap.
"""

from __future__ import annotations

from .graph import Graph, GraphError
from .graph6 import encode_mask

CANON_LIMIT = 10


def _refine_colors(g: Graph) -> list[int]:
    # Iterated neighborhood refinement starting from degrees.  Color ids are
    # assigned by sorting signature tuples, so their order is an isomorphism
    # invariant (inductively: degrees are, and so is each refinement round).
    adj = g._adj
    colors = list(map(len, adj))
    rank = {c: i for i, c in enumerate(sorted(set(colors)))}
    colors = [rank[c] for c in colors]
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


def canonical_form(g: Graph, limit: int = CANON_LIMIT) -> str:
    """graph6 line identifying the isomorphism class of g.

    Raises GraphError when g has more than `limit` vertices (default 10).
    """
    n = g.n
    if n > limit:
        raise GraphError(f"canonical form capped at {limit} vertices, got {n}")
    if n == 1:
        return encode_mask(1, 0)

    colors = _refine_colors(g)
    # Position p must receive a vertex of class block_of[p]; blocks are laid
    # out in color order, which is invariant.
    block_of: list[int] = []
    for color in sorted(set(colors)):
        block_of.extend([color] * colors.count(color))

    nbits = n * (n - 1) // 2
    adj = g._adj
    placed: list[int] = []
    used = [False] * n
    best: int | None = None
    # prefix lengths: after filling position k there are k(k+1)/2 bits
    tri = [k * (k + 1) // 2 for k in range(n + 1)]

    def extend(depth: int, prefix: int) -> None:
        nonlocal best
        if depth == n:
            if best is None or prefix < best:
                best = prefix
            return
        want = block_of[depth]
        candidates = []
        for v in range(n):
            if not used[v] and colors[v] == want:
                col = 0
                for i, w in enumerate(placed):
                    if v in adj[w]:
                        col |= 1 << (depth - 1 - i)
                candidates.append((col, v))
        candidates.sort()
        for col, v in candidates:
            # child carries tri[depth] bits: position i contributes i of them
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
    mask = 0
    for j in range(nbits):
        if (best >> (nbits - 1 - j)) & 1:
            mask |= 1 << j
    return encode_mask(n, mask)
