"""graph6 encoding and decoding.

The format packs the upper adjacency triangle in column order
x(0,1), x(0,2), x(1,2), x(0,3), ... into 6-bit groups, each offset by 63
into printable ASCII, after a size prefix N(n).  That column order is
also the package-wide edge index order: edge (u, v) with u < v has index
v*(v-1)/2 + u, and bit k of an integer mask stands for edge k.  The
enumeration kernel and this codec therefore share one bit layout.

Column v of a mask is its next run of v bits; their set bits are the
lower neighbours of v.  mask_edges(), the package's one mask walk, finds
the set bits once, with no sort, and hands on the edges in index order.
For every n with the one-byte size prefix (n <= 62) it selects them from
one shared table of the first C(62, 2) pairs in a single C-level pass;
larger n, for which a table would grow with n**2, read the set bits of
the mask's nonzero bytes.  The index formulas score those edges directly;
mask_rows() turns them into neighbour lists, which the canonical search
reads; and graph_of_mask(), the one mask -> Graph path, hands them to
graph._from_edges, which builds the Graph's rows and sorted edge tuple.
"""

from __future__ import annotations

from binascii import a2b_base64, b2a_base64
from itertools import compress
from math import isqrt

# graph_of_mask looks _from_edges up here at call time; perfbench wraps it
from .graph import Graph, GraphError, _from_edges, _graph


class Graph6Error(GraphError):
    """Malformed graph6 input; `position` is the 0-based byte offset."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (byte {position})"
        super().__init__(message)
        self.position = position


_MAX_N = 258047  # largest n encodable with the 3-byte size form

# The data bytes are the edge bits in index order cut into 6-bit groups,
# the first edge the high bit of its group: base64 over the mask's bytes,
# little-endian and each bit-reversed, with the alphabet chr(63)..chr(126).
# binascii converts a whole body in one linear pass.
_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_DATA = bytes(range(63, 127))
_TO_DATA = bytes.maketrans(_B64, _DATA)
_TO_B64 = bytes.maketrans(_DATA, _B64)
_REV8 = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def edge_table(n: int) -> tuple[tuple[int, int], ...]:
    """All C(n,2) vertex pairs in column (index) order."""
    return tuple((u, v) for v in range(1, n) for u in range(v))


# the column order does not depend on n, so edge_table(n) is a prefix of
# this ~120 KB table for every n <= 62; its tuples are shared, never copied
_PAIRS = edge_table(62)
_BIT = bytes.maketrans(b"01", b"\0\1")


def mask_edges(n: int, mask: int) -> list[tuple[int, int]]:
    """Edges (u, v), u < v, of the n-vertex graph whose edge k is bit k of mask.

    The edges come out in index (column) order.  For n <= 62 the binary
    string, reversed so that character k is bit k, becomes a 0/1 byte
    selector, and itertools.compress picks the pairs of _PAIRS at its set
    bytes: one C-level pass, and no pair built.  Larger n take the mask's
    little-endian bytes, let itertools.compress pick out the nonzero ones,
    and read their set bits in ascending order, each bit's column in closed
    form, so no string of one character per bit is built.
    """
    if n <= 62:
        return list(compress(_PAIRS, bin(mask)[:1:-1].encode().translate(_BIT)))
    edges: list[tuple[int, int]] = []
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    for i in compress(range(len(data)), data):
        byte = data[i]
        while byte:
            low = byte & -byte
            byte ^= low
            k = (i << 3) + low.bit_length() - 1
            # column v holds the indices v(v-1)/2 .. v(v+1)/2 - 1
            v = (isqrt(8 * k + 1) + 1) // 2
            edges.append((k - v * (v - 1) // 2, v))
    return edges


def mask_rows(n: int, mask: int) -> list[list[int]]:
    """Neighbour lists of the n-vertex graph whose edge k is bit k of mask.

    Each row comes out ascending: the edges arrive column by column, so
    a row gets its lower neighbours from its own column, then its higher
    ones from later columns.
    """
    rows: list[list[int]] = [[] for _ in range(n)]
    for u, v in mask_edges(n, mask):
        rows[v].append(u)
        rows[u].append(v)
    return rows


def graph_of_mask(n: int, mask: int) -> Graph:
    """Graph on n vertices with edge k present iff bit k of mask is set.

    The mask walk's edges are valid and distinct, as _from_edges trusts.
    """
    return _from_edges(n, mask_edges(n, mask))


def _size_prefix(n: int) -> str:
    if n < 1 or n > _MAX_N:
        raise Graph6Error(f"n={n} outside encodable range 1..{_MAX_N}")
    if n <= 62:
        return chr(n + 63)
    return "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))


def encode_mask(n: int, mask: int) -> str:
    """graph6 line for the adjacency mask of an n-vertex graph."""
    head = _size_prefix(n)
    nbits = n * (n - 1) // 2
    if mask >> nbits:
        raise Graph6Error("adjacency mask has bits beyond the triangle")
    need = (nbits + 5) // 6
    # whole base64 quanta: 4 groups from 3 bytes, the spare groups zero
    data = mask.to_bytes((need + 3) // 4 * 3, "little").translate(_REV8)
    return head + b2a_base64(data, newline=False)[:need].translate(_TO_DATA).decode()


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
    body = line[body_at:].encode().translate(_TO_B64)
    data = a2b_base64(body + b"A" * (-len(body) % 4))  # "A" is a zero group
    mask = int.from_bytes(data.translate(_REV8), "little")
    if mask >> nbits:
        extra = (mask >> nbits).bit_length() - 1 + nbits
        raise Graph6Error(f"padding bit {extra} is set", body_at + extra // 6)
    return n, mask


def graph6_encode(g: Graph) -> str:
    """graph6 line for g (labeled, not canonicalized)."""
    _graph(g)
    _size_prefix(g.n)  # before the mask, which an oversized n makes huge
    data = bytearray((g.n * (g.n - 1) // 2 + 7) // 8)
    for u, v in g.edges:
        k = v * (v - 1) // 2 + u
        data[k >> 3] |= 1 << (k & 7)
    return encode_mask(g.n, int.from_bytes(data, "little"))


def graph6_decode(text: str) -> Graph:
    """Graph from one graph6 line."""
    if not isinstance(text, str):
        raise Graph6Error(f"graph6 input must be a str, got {text!r}")
    return graph_of_mask(*decode_mask(text))
