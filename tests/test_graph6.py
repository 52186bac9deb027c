import random
import re
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zagreb.graph6 as graph6_mod
from zagreb import (
    Graph,
    Graph6Error,
    cycle_graph,
    graph6_decode,
    graph6_encode,
    make_graph,
    path_graph,
    star_graph,
)
from zagreb.graph6 import (
    decode_mask,
    edge_table,
    encode_mask,
    graph_of_mask,
    mask_edges,
    mask_rows,
)
from zagreb.indices import INDEX_FUNCS, compute_index, degrees
from util import all_pairs, bf_connected_all_m, random_graph
from test_enumeration import NAIVE

K4 = make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])

# pinned encodings, cross-checked against an independent reference
# implementation before freezing
PINS = [
    (K4, "C~"),
    (make_graph(1, []), "@"),
    (path_graph(4), "Ch"),
    (cycle_graph(5), "Dhc"),
    (star_graph(4), "Cs"),
]


@pytest.mark.parametrize("g, line", PINS)
def test_pinned_encodings(g, line):
    assert graph6_encode(g) == line
    assert graph6_decode(line) == g


def test_round_trip_exhaustive_small():
    for n in range(1, 6):
        for g in bf_connected_all_m(n):
            assert graph6_decode(graph6_encode(g)) == g


def test_round_trip_random():
    rng = random.Random(1905)
    for _ in range(300):
        g = random_graph(rng, n_max=12)
        assert graph6_decode(graph6_encode(g)) == g


@pytest.mark.parametrize("n", [62, 63, 64, 100, 1000])
def test_extended_size_header(n):
    # sparse triangle so only the header varies across the boundary sizes
    g = make_graph(n, [(0, 1), (1, 2), (0, 2)])
    line = graph6_encode(g)
    assert (line[0] == "~") == (n > 62)
    back = graph6_decode(line)
    assert back.n == n and back.edges == g.edges


@pytest.mark.parametrize(
    "line, fragment, position",
    [
        ("", "empty graph6 line", None),
        ("C" + chr(33), "outside graph6 range", 1),
        ("C", "need 1 adjacency bytes", 1),
        ("Dhc?", "trailing garbage", 3),
        ("~~~~", "n > 258047", 1),
        ("~?", "truncated extended size prefix", 2),
        ("?", "zero vertices", 0),
    ],
)
def test_decode_rejects_malformed(line, fragment, position):
    with pytest.raises(Graph6Error) as exc:
        graph6_decode(line)
    assert fragment in str(exc.value)
    if position is not None:
        assert exc.value.position == position


@pytest.mark.parametrize("value", [5, b"C~", None])
def test_decode_rejects_a_non_string(value):
    # a library caller gets the codec's own error, naming what it passed
    with pytest.raises(Graph6Error) as exc:
        graph6_decode(value)
    assert str(exc.value) == f"graph6 input must be a str, got {value!r}"


def test_decode_rejects_set_padding_bit():
    # K3 is "Bw": 3 data bits, 3 padding bits that must stay zero
    assert graph6_encode(cycle_graph(3)) == "Bw"
    with pytest.raises(Graph6Error, match="padding bit"):
        graph6_decode("Bx")
    # and the encoder refuses a mask with a bit past K3's three
    with pytest.raises(Graph6Error, match="adjacency mask has bits beyond the triangle"):
        encode_mask(3, 0b1111)


def test_trailing_newline_tolerated():
    assert graph6_decode("C~\n") == K4


def test_column_bit_order():
    # bit k of the payload is edge (u, v) with k = v(v-1)/2 + u
    pairs = sorted(all_pairs(5), key=lambda e: e[1] * (e[1] - 1) // 2 + e[0])
    for k, (u, v) in enumerate(pairs):
        g = make_graph(5, [(u, v)])
        payload = graph6_encode(g)[1:]
        bits = 0
        for j, ch in enumerate(payload):
            bits |= (ord(ch) - 63) << (6 * ((len(payload) - 1) - j))
        width = 6 * len(payload)
        assert bits >> (width - 1 - k) & 1 == 1
        assert bits.bit_count() == 1


@pytest.mark.parametrize("make", [path_graph, star_graph])
def test_large_graphs_round_trip_in_linear_time(make):
    # a shift of the whole mask per 6-bit group or per edge is quadratic here
    g = make(4000)
    t0 = time.perf_counter()
    line = graph6_encode(g)
    n, mask = decode_mask(line)
    back = encode_mask(n, mask)
    wall = time.perf_counter() - t0
    assert n == 4000 and back == line
    set_bits = [m.start() for m in re.finditer("1", f"{mask:b}"[::-1])]
    assert set_bits == sorted(v * (v - 1) // 2 + u for u, v in g.edges)
    assert wall < 5.0, wall
    # the Graph build from the mask: a shift of the mask per column is
    # quadratic here
    g = make(10_000)
    line = graph6_encode(g)
    t0 = time.perf_counter()
    assert graph6_decode(line) == g
    wall = time.perf_counter() - t0
    assert wall < 5.0, wall


class _OversizedGraph(Graph):
    # stands in for star_graph(258048), whose mask alone would take 4 GB;
    # a Graph, since graph6_encode refuses anything else
    n = 258048

    def __new__(cls):
        return object.__new__(cls)

    @property
    def edges(self):
        raise AssertionError("the mask was built before n was checked")


def test_oversized_graph_fails_before_its_mask_is_built():
    with pytest.raises(Graph6Error, match="n=258048 outside encodable range 1..258047"):
        graph6_encode(_OversizedGraph())


def _table_pairs(n, mask):
    # independent reference: table lookup of each set bit, in index order
    table = edge_table(n)
    return [table[k] for k in range(len(table)) if mask >> k & 1]


def _builder_cases():
    for n in range(1, 7):
        for mask in range(1 << (n * (n - 1) // 2)):
            yield n, mask
    rng = random.Random(406)
    # 62/63/64 straddle the 1-byte / 4-byte size prefix, where mask_edges
    # hands over from its pair table to the bit scan
    for n in (7, 12, 40, 61, 62, 63, 64, 300):
        nbits = n * (n - 1) // 2
        yield n, rng.getrandbits(nbits)
        yield n, sum(1 << k for k in rng.sample(range(nbits), n))
        yield n, (1 << nbits) - 1 - (1 << rng.randrange(nbits))
    yield 1, 0
    for n in (62, 63):
        nbits = n * (n - 1) // 2
        yield n, 0
        yield n, (1 << nbits) - 1  # the whole triangle, K_n
        yield n, 1 << (nbits - 1)  # only the triangle's top bit, edge (n-2, n-1)


def test_mask_builder_matches_table_lookup():
    for n, mask in _builder_cases():
        pairs = _table_pairs(n, mask)
        ref = make_graph(n, pairs)  # a validated build
        # the one mask walk hands on the set bits' pairs in index order
        edges = mask_edges(n, mask)
        assert edges == pairs, (n, mask)
        assert mask_rows(n, mask) == [sorted(ref.neighbors(v)) for v in range(n)]
        # each index scored from the mask, as compute scores a line; naive
        # em2 pairs up the edges, too slow for the thousands of a dense mask
        deg = degrees(n, edges)
        for ident, fn in INDEX_FUNCS.items():
            want = NAIVE[ident](ref) if len(edges) < 1000 else compute_index(ref, ident)
            assert fn(deg, edges) == want, (n, mask, ident)
        for g in (graph_of_mask(n, mask), graph6_decode(encode_mask(n, mask))):
            # Graph.__eq__ compares n and edges only; check the adjacency too
            assert g.n == ref.n and g.edges == ref.edges, (n, mask)
            for v in range(n):
                assert g.neighbors(v) == ref.neighbors(v), (n, mask, v)


@pytest.mark.parametrize("n", [7, 62, 63])
def test_mask_edges_lists_are_the_callers_own(n):
    # the pairs come from a table shared by every call; a caller that
    # edits its list must not reach the table or the next call's list
    mask = (1 << n * (n - 1) // 2) - 1
    want = mask_edges(n, mask)
    mask_edges(n, mask).append((0, 0))
    assert mask_edges(n, mask) == want
    mask_edges(n, mask).clear()
    assert mask_edges(n, mask) == want == _table_pairs(n, mask)


def test_large_mask_walk_builds_no_string_per_bit():
    # a 3,000-vertex star centred on vertex 0 has one edge per column, so
    # its mask spans C(3000, 2) ~ 4.5M bits; a walk over bin(mask) holds one
    # character per bit, while the mask's own bytes are an eighth of that
    n = 3000
    nbits = n * (n - 1) // 2
    star = sum(1 << (v * (v - 1) // 2) for v in range(1, n))
    tracemalloc.start()
    try:
        edges = mask_edges(n, star)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert edges == [(0, v) for v in range(1, n)]
    assert peak < nbits // 4, peak


def test_mask_builds_go_through_from_edges(monkeypatch):
    # graph6 looks _from_edges up at call time, so a wrapper there sees
    # every mask -> Graph build
    calls = []

    def counted(n, edges):
        calls.append(n)
        return built(n, edges)

    built = graph6_mod._from_edges
    monkeypatch.setattr(graph6_mod, "_from_edges", counted)
    assert graph_of_mask(4, 0b111111) == K4
    assert calls == [4]
    assert graph6_decode("Dhc") == cycle_graph(5)
    assert calls == [4, 5]


@pytest.mark.parametrize("bad", ["é", "\U0001F600", chr(62), chr(127)])
@pytest.mark.parametrize(
    "line, at",
    [
        ("{}hC", 0),  # size byte
        ("~?{}?", 2),  # inside the extended size prefix
        ("KhCGGC{}?G?_@", 6),  # mid-data
    ],
)
def test_decode_reports_first_bad_byte(bad, line, at):
    with pytest.raises(Graph6Error) as exc:
        graph6_decode(line.format(bad))
    assert str(exc.value) == f"byte {ord(bad)} outside graph6 range 63..126 (byte {at})"
    assert exc.value.position == at


# the last two lines hold two offenders each; the first is reported
@pytest.mark.parametrize(
    "line, message, position",
    [
        ("Cé", "byte 233 outside graph6 range 63..126 (byte 1)", 1),
        ("~?\x7f?", "byte 127 outside graph6 range 63..126 (byte 2)", 2),
        ("D\x7fé", "byte 127 outside graph6 range 63..126 (byte 1)", 1),
        ("C~é?>", "byte 233 outside graph6 range 63..126 (byte 2)", 2),
    ],
)
def test_decode_reports_pinned_bad_byte(line, message, position):
    with pytest.raises(Graph6Error) as exc:
        graph6_decode(line)
    assert str(exc.value) == message and exc.value.position == position


# arbitrary text, and text drawn mostly from graph6's own alphabet so that
# many lines get past the byte check into the size and padding checks
GRAPH6_ISH = st.text(alphabet=st.sampled_from("?@ABCDEFGH_`ow~\n"), max_size=14)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(max_size=20), GRAPH6_ISH))
def test_decode_mask_raises_only_graph6_error(text):
    try:
        n, mask = decode_mask(text)
    except Graph6Error as exc:
        assert exc.position is None or 0 <= exc.position <= len(text)
        return
    assert n >= 1 and 0 <= mask < 1 << (n * (n - 1) // 2)
