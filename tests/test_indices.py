import random

import pytest

from zagreb import (
    GraphError,
    INDEX_IDS,
    compute_index,
    cycle_graph,
    em1,
    em2,
    line_graph,
    m1,
    m2,
    make_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)
from util import (
    all_pairs,
    bf_connected_all_m,
    naive_em1,
    naive_em2,
    naive_m1,
    naive_m2,
    random_graph,
)

K4 = make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])

# hand-evaluated from the definitions
PINNED = [
    (K4, 36, 54, 96, 192),
    (path_graph(4), 10, 8, 6, 4),
    (path_graph(2), 2, 1, 0, 0),
    (cycle_graph(5), 20, 20, 20, 20),
    (star_graph(5), 20, 16, 36, 54),
    (make_graph(1, []), 0, 0, 0, 0),
]


@pytest.mark.parametrize("g, w1, w2, e1, e2", PINNED)
def test_pinned_values(g, w1, w2, e1, e2):
    assert (m1(g), m2(g), em1(g), em2(g)) == (w1, w2, e1, e2)


def test_matches_naive_definitions_exhaustively():
    for g in bf_connected_all_m(5):
        assert m1(g) == naive_m1(g)
        assert m2(g) == naive_m2(g)
        assert em1(g) == naive_em1(g)
        assert em2(g) == naive_em2(g)


def test_matches_naive_definitions_random():
    rng = random.Random(23)
    for _ in range(250):
        g = random_graph(rng, n_max=10)
        assert em1(g) == naive_em1(g)
        assert em2(g) == naive_em2(g)


def test_line_graph_oracle_small():
    # em1/em2 are the plain Zagreb indices of the line graph
    for g in bf_connected_all_m(5):
        if g.m == 0:
            continue
        lg = line_graph(g)
        assert em1(g) == m1(lg)
        assert em2(g) == m2(lg)


def test_compute_index_dispatch():
    assert INDEX_IDS == ("m1", "m2", "em1", "em2")
    for ident, fn in zip(INDEX_IDS, (m1, m2, em1, em2)):
        assert compute_index(K4, ident) == fn(K4)
    with pytest.raises(GraphError, match="unknown index"):
        compute_index(K4, "em3")


def test_index_is_relabeling_invariant():
    rng = random.Random(7)
    for _ in range(50):
        g = random_graph(rng, n_max=9)
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        for ident in INDEX_IDS:
            assert compute_index(g, ident) == compute_index(h, ident)


def compute_sized_graphs():
    # sparse graphs up to n = 40 and dense ones, as `zagreb compute` sees
    rng = random.Random(4040)
    for _ in range(60):
        yield random_connected_graph(rng, 4, 40)
    for _ in range(20):
        # a random spanning tree plus each remaining pair with probability 1/2
        base = random_connected_graph(rng, 6, 16)
        have = set(base.edges)
        extra = [e for e in all_pairs(base.n) if e not in have and rng.random() < 0.5]
        yield make_graph(base.n, list(have) + extra)


def test_indices_at_compute_sizes():
    for g in compute_sized_graphs():
        assert m1(g) == naive_m1(g)
        assert m2(g) == naive_m2(g)
        lg = line_graph(g)
        assert em1(g) == m1(lg)
        assert em2(g) == m2(lg)
