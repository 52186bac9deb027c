import random
from itertools import permutations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zagreb import (
    CANON_LIMIT,
    GraphError,
    canonical_form,
    cycle_graph,
    graph6_decode,
    make_graph,
    path_graph,
    star_graph,
)
from util import all_pairs, bf_connected, bf_connected_all_m, relabeled

# unlabeled connected graph counts, cross-checked against the standard
# enumeration references before freezing
CONNECTED_CLASSES = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
# connected classes at fixed cyclomatic number; n = 7 only for trees to
# keep this file fast, the larger slices run in the acceptance suite
CLASSES_BY_C = {
    0: {4: 2, 5: 3, 6: 6, 7: 11},
    1: {4: 2, 5: 5, 6: 13},
    2: {4: 1, 5: 5, 6: 19},
    3: {4: 1, 5: 4, 6: 22},
}


def test_invariant_under_all_relabelings_small():
    for g in bf_connected_all_m(4):
        want = canonical_form(g)
        for perm in permutations(range(4)):
            assert canonical_form(relabeled(g, perm)) == want


def test_invariant_under_random_relabelings():
    rng = random.Random(41)
    for n in (5, 6, 7):
        for g in rng.sample(bf_connected(n, n + 1), 40):
            want = canonical_form(g)
            for _ in range(8):
                perm = list(range(n))
                rng.shuffle(perm)
                assert canonical_form(relabeled(g, perm)) == want


@pytest.mark.parametrize("n, want", sorted(CONNECTED_CLASSES.items()))
def test_class_counts_all_connected(n, want):
    forms = {canonical_form(g) for g in bf_connected_all_m(n)}
    assert len(forms) == want


@pytest.mark.parametrize("c", [0, 1, 2, 3])
def test_class_counts_by_cyclomatic_number(c):
    for n, want in CLASSES_BY_C[c].items():
        forms = {canonical_form(g) for g in bf_connected(n, n - 1 + c)}
        assert len(forms) == want


def test_canonical_form_decodes_to_isomorphic_graph():
    rng = random.Random(97)
    for g in rng.sample(bf_connected(7, 9), 60):
        back = graph6_decode(canonical_form(g))
        assert back.n == g.n and back.m == g.m
        assert sorted(back.degree(v) for v in range(7)) == sorted(
            g.degree(v) for v in range(7)
        )


def test_named_families_have_distinct_forms():
    forms = {
        canonical_form(path_graph(6)),
        canonical_form(star_graph(6)),
        canonical_form(cycle_graph(6)),
    }
    assert len(forms) == 3


def test_size_cap():
    big = make_graph(CANON_LIMIT + 1, [(0, 1)])
    with pytest.raises(GraphError, match="capped at"):
        canonical_form(big)


@st.composite
def graph_pairs(draw):
    # isomorphic pairs (relabelings), same-size pairs (one edge moved) and
    # unrelated pairs, on at most 7 vertices
    n = draw(st.integers(1, 7))
    pairs = all_pairs(n)
    a = [p for p in pairs if draw(st.booleans())]
    kind = draw(st.sampled_from(("relabel", "move", "free")))
    if kind == "relabel":
        perm = draw(st.permutations(range(n)))
        b = [(perm[u], perm[v]) for u, v in a]
    elif kind == "move" and a and len(a) < len(pairs):
        gone = draw(st.sampled_from(a))
        new = draw(st.sampled_from([p for p in pairs if p not in a]))
        b = [p for p in a if p != gone] + [new]
    else:
        b = [p for p in pairs if draw(st.booleans())]
    return make_graph(n, a), make_graph(n, b)


def _nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


@settings(max_examples=300, deadline=None)
@given(graph_pairs())
def test_canonical_form_agrees_with_networkx_isomorphism(pair):
    a, b = pair
    same = canonical_form(a) == canonical_form(b)
    assert same == nx.is_isomorphic(_nx(a), _nx(b))
