"""graph6 encoding and decoding.

The format packs the upper adjacency triangle in column order
x(0,1), x(0,2), x(1,2), x(0,3), ... into 6-bit groups, each offset by 63
into printable ASCII, after a size prefix N(n).  That column order is
also the package-wide edge index order: edge (u, v) with u < v has index
v*(v-1)/2 + u, and bit k of an integer mask stands for edge k.  The
enumeration kernels and this codec therefore share one bit layout.

Column v of a mask is its next run of v bits; their set bits are the
lower neighbours of v.  graph_of_mask(), the package's one mask -> Graph
builder, walks the columns once, with no table of pairs and no sort.
"""

from __future__ import annotations

# perfbench/tracer.py wraps _from_edges in each module that imports it
from .graph import Graph, GraphError, _blessed, _from_edges  # noqa: F401


class Graph6Error(GraphError):
    """Malformed graph6 input; `position` is the 0-based byte offset."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (byte {position})"
        super().__init__(message)
        self.position = position


_MAX_N = 258047  # largest n encodable with the 3-byte size form

# 6-bit reversal table: group g with edge bit k at 1<<(k mod 6) becomes the
# big-endian bit layout graph6 wants within a data byte.
_REV6 = tuple(
    sum(((g >> i) & 1) << (5 - i) for i in range(6)) for g in range(64)
)


def edge_table(n: int) -> tuple[tuple[int, int], ...]:
    """All C(n,2) vertex pairs in column (index) order."""
    return tuple((u, v) for v in range(1, n) for u in range(v))


def graph_of_mask(n: int, mask: int) -> Graph:
    """Graph on n vertices with edge k present iff bit k of mask is set.

    Row v gets its lower neighbours from column v; later columns append
    the higher ones in ascending order, so edges come out lexicographic.
    """
    rows: list[list[int]] = [[] for _ in range(n)]
    lower = [0] * n
    for v in range(1, n):
        col = mask & ((1 << v) - 1)
        mask >>= v
        row = rows[v]
        while col:
            u = col.bit_length() - 1
            col ^= 1 << u
            row.append(u)
            rows[u].append(v)
        lower[v] = len(row)
    edges = tuple([(u, v) for u in range(n) for v in rows[u][lower[u]:]])
    return _blessed(n, rows, edges)


def edges_of_mask(n: int, mask: int) -> list[tuple[int, int]]:
    """Edges (u, v), u < v, of an adjacency mask in lexicographic order."""
    return list(graph_of_mask(n, mask).edges)


def encode_mask(n: int, mask: int) -> str:
    """graph6 line for the adjacency mask of an n-vertex graph."""
    if n < 1 or n > _MAX_N:
        raise Graph6Error(f"n={n} outside encodable range 1..{_MAX_N}")
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    nbits = n * (n - 1) // 2
    if mask >> nbits:
        raise Graph6Error("adjacency mask has bits beyond the triangle")
    return head + "".join(chr(63 + _REV6[(mask >> s) & 63]) for s in range(0, nbits, 6))


def decode_mask(text: str) -> tuple[int, int]:
    """Parse one graph6 line into (n, adjacency mask).

    Raises Graph6Error with the byte position for any malformed input:
    bytes outside 63..126, a bad or truncated size prefix, wrong data
    length, trailing garbage, or a set padding bit.
    """
    line = text.rstrip("\n")
    if not line:
        raise Graph6Error("empty graph6 line")
    if not ("?" <= min(line) and max(line) <= "~"):  # chr(63)..chr(126)
        i = next(i for i, ch in enumerate(line) if not "?" <= ch <= "~")
        raise Graph6Error(f"byte {ord(line[i])} outside graph6 range 63..126", i)
    if line[0] != "~":
        n = ord(line[0]) - 63
        body_at = 1
    else:
        if len(line) >= 2 and line[1] == "~":
            raise Graph6Error("graphs with n > 258047 are not supported", 1)
        if len(line) < 4:
            raise Graph6Error("truncated extended size prefix", len(line))
        n = 0
        for i in (1, 2, 3):
            n = (n << 6) | (ord(line[i]) - 63)
        body_at = 4
    if n == 0:
        raise Graph6Error("graph on zero vertices is not supported", 0)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    got = len(line) - body_at
    if got < need:
        raise Graph6Error(f"need {need} adjacency bytes for n={n}, found {got}", len(line))
    if got > need:
        raise Graph6Error("trailing garbage after adjacency data", body_at + need)
    mask = 0
    for ch in reversed(line[body_at:]):
        mask = (mask << 6) | _REV6[ord(ch) - 63]
    if mask >> nbits:
        extra = (mask >> nbits).bit_length() - 1 + nbits
        raise Graph6Error(f"padding bit {extra} is set", body_at + extra // 6)
    return n, mask


def graph6_encode(g: Graph) -> str:
    """graph6 line for g (labeled, not canonicalized)."""
    return encode_mask(g.n, sum(1 << (v * (v - 1) // 2 + u) for u, v in g.edges))


def graph6_decode(text: str) -> Graph:
    """Graph from one graph6 line."""
    return graph_of_mask(*decode_mask(text))
