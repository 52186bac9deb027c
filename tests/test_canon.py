import hashlib
import random
import time
from itertools import permutations
from math import factorial

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx.algorithms.isomorphism import GraphMatcher

from zagreb import (
    CANON_LIMIT,
    GraphError,
    canonical_form,
    cycle_graph,
    graph6_decode,
    is_connected,
    make_graph,
    path_graph,
    s_n_m,
    star_graph,
)
from zagreb.canon import _canonical_search, _refine_colors
from zagreb.graph6 import graph_of_mask, mask_rows
from util import (
    all_pairs,
    bf_connected,
    bf_connected_all_m,
    bf_connected_edges,
    relabeled,
)

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
        # sample edge tuples, so that only the sampled graphs are built
        for edges in rng.sample(bf_connected_edges(n, n + 1), 40):
            g = make_graph(n, edges)
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
    for edges in rng.sample(bf_connected_edges(7, 9), 60):
        g = make_graph(7, edges)
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


# twin-heavy graphs at the size cap, with |Aut| from their twin classes
TWIN_HEAVY = {
    "star(10)": (star_graph(10), factorial(9)),
    "K_10": (make_graph(10, all_pairs(10)), factorial(10)),
    "K_3,7": (
        make_graph(10, [(u, v) for u in range(3) for v in range(3, 10)]),
        factorial(3) * factorial(7),
    ),
    # leaf 1 joined to leaf 2 only: the triangle 0-1-2 with 7 pendants on 0
    "s_10_10": (s_n_m(10, 10), 2 * factorial(7)),
    # leaf 1 joined to leaves 2..4: 3 twins on {0, 1}, 5 pendants on 0
    "s_10_12": (s_n_m(10, 12), factorial(3) * factorial(5)),
    # leaf 1 joined to every leaf: 0 and 1 are twins, so are 2..9
    "s_10_17": (s_n_m(10, 17), 2 * factorial(8)),
}


# sha256 of repr((n, mask, _canonical_search output bar the labeling,
# canonical_form)) over _sample_masks(): canonical masks, |Aut| and the
# generators in order, taken before the search read neighbour lists and
# stopped at a discrete refinement
SEARCH_DIGEST = "759c74d274e2bb954ecb0c6023bea4dca088dd46acb8652ff1ffaeed12553448"


def _sample_masks():
    # seeded masks at every size up to the cap, from empty to complete, at
    # densities drawn per mask: disconnected graphs and discrete
    # refinements among them
    rng = random.Random(2014)
    for n in range(1, CANON_LIMIT + 1):
        nbits = n * (n - 1) // 2
        yield n, 0
        yield n, (1 << nbits) - 1
        for _ in range(298):
            p = rng.random()
            yield n, sum(1 << k for k in range(nbits) if rng.random() < p)


def test_search_digest_and_entry_points_agree():
    h = hashlib.sha256()
    disconnected = discrete = 0
    for n, mask in _sample_masks():
        rows = mask_rows(n, mask)
        g = graph_of_mask(n, mask)
        got = _canonical_search(n, rows)
        assert got == _canonical_search(g.n, g._adj), (n, mask)
        h.update(repr((n, mask, got[:3], canonical_form(g))).encode())
        disconnected += not is_connected(g)
        discrete += len(set(_refine_colors(n, rows))) == n
    assert h.hexdigest() == SEARCH_DIGEST
    assert disconnected > 100 and discrete > 100, (disconnected, discrete)


def test_labeling_places_the_graph_on_its_canonical_mask():
    # class generation names a child's canonical deletion through pos
    for n, mask in _sample_masks():
        rows = mask_rows(n, mask)
        form, _, _, pos = _canonical_search(n, rows)
        assert sorted(pos) == list(range(n)), (n, mask)
        placed = 0
        for u, v in graph_of_mask(n, mask).edges:
            a, b = sorted((pos[u], pos[v]))
            placed |= 1 << (b * (b - 1) // 2 + a)
        assert placed == form, (n, mask)


def _self_maps(n, mask) -> int:
    # brute force: the permutations that map the edge set onto itself
    edges = set(graph_of_mask(n, mask).edges)
    return sum(
        {tuple(sorted((p[u], p[v]))) for u, v in edges} == edges
        for p in permutations(range(n))
    )


def test_aut_order_matches_brute_force_on_every_small_mask():
    # every labeled graph on n <= 5 vertices, disconnected ones included;
    # none is rigid beyond n = 1, so a refinement that wrongly came out
    # discrete here would claim |Aut| = 1 and fail
    for n in range(1, 6):
        for mask in range(1 << n * (n - 1) // 2):
            aut = _canonical_search(n, mask_rows(n, mask))[1]
            assert aut == _self_maps(n, mask), (n, mask)


def test_discrete_refinements_are_rigid_and_canonical():
    # sampled graphs whose refinement separates every vertex: networkx
    # finds exactly one self-map, and relabelings keep the form
    rng = random.Random(61)
    for n in (6, 7, 8):
        nbits = n * (n - 1) // 2
        found = 0
        while found < 40:
            mask = rng.getrandbits(nbits)
            rows = mask_rows(n, mask)
            if len(set(_refine_colors(n, rows))) < n:
                continue
            found += 1
            g = graph_of_mask(n, mask)
            form, aut, gens, _ = _canonical_search(n, rows)
            assert (aut, gens) == (1, [])
            h = _nx(g)
            assert sum(1 for _ in GraphMatcher(h, h).isomorphisms_iter()) == 1
            for _ in range(4):
                perm = list(range(n))
                rng.shuffle(perm)
                r = relabeled(g, perm)
                assert _canonical_search(r.n, r._adj)[:3] == (form, 1, [])


@pytest.mark.parametrize("name", sorted(TWIN_HEAVY))
def test_twin_heavy_graphs(name):
    g, aut = TWIN_HEAVY[name]
    form, got = _canonical_search(g.n, g._adj)[:2]
    assert got == aut
    rng = random.Random(name)
    for _ in range(6):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = relabeled(g, perm)
        assert _canonical_search(h.n, h._adj)[:2] == (form, aut)


def test_star_canonical_form_is_fast():
    # the twin-free search placed all 9! leaf orders, about 2 s
    t0 = time.perf_counter()
    canonical_form(star_graph(10))
    assert time.perf_counter() - t0 < 0.05


def test_size_cap():
    big = make_graph(CANON_LIMIT + 1, [(0, 1)])
    with pytest.raises(GraphError) as exc:
        canonical_form(big)
    assert str(exc.value) == "canonical form capped at 10 vertices, got 11"


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
