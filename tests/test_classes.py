"""The isomorphism-class generator against sources independent of it.

Class counts come from OEIS A001349, the networkx graph atlas and the
cycle index of S_n on vertex pairs, orbit weights from the labeled
connected-graph recurrence and the frozen labeled counts of the
acceptance gate, |Aut| and its generators from networkx's matcher, and
class and labeled scans from the labeled kernel walk.
"""

import hashlib
import json
import math
import random
from dataclasses import replace
from itertools import islice

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import GraphMatcher

from zagreb import (
    INDEX_IDS,
    EnumSpec,
    GraphError,
    canonical_form,
    connected_classes,
    extremal_scan,
    graph6_decode,
    make_graph,
)
from zagreb import _kernel, enumeration
from zagreb.canon import _canonical_search
from zagreb.enumeration import _class_levels
from zagreb.graph6 import encode_mask, graph_of_mask
from test_acceptance import ENUMERATED_SLICE_TOTAL, LABELED_CONNECTED
from util import labeled_connected_counts, relabeled, unlabeled_connected_counts

# connected labeled graphs by (n, m), from the recurrence
RECURRENCE = labeled_connected_counts(8)

# connected unlabeled graphs by (n, m), from the cycle index
CYCLE_INDEX = unlabeled_connected_counts(10)

# connected unlabeled graphs on n vertices
A001349 = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}

# classes at c = 0..3 beyond the sizes Tier-1 generates, frozen from the
# cycle index above and equal to what _class_levels(9) and (10) produce
CLASSES_C3 = {9: (47, 240, 797, 2075), 10: (106, 657, 2678, 8548)}

# sha256 of repr(sorted(classes.items())) for each (m, classes) that
# _class_levels(7) yields: canonical masks and |Aut|, not the order a level
# meets its classes in; taken when every candidate child was canonicalized
LEVELS_N7_DIGESTS = {
    6: "3ddc553fbccda33c834201c9ec555a4154b25b564fc7befbf9335589ecc616c2",
    7: "b582418c116130117528109fafb9f9afc79634d065c5b747da8e9e9ca80f3051",
    8: "0789dd9fde74c77eb7bde4bb6bf6f0e9e8994fea04cd0c17923ad53dc813eb41",
    9: "146223e5a4219af7bd8ea1847d7bbf2a2e274f7da58a6633cb2ebddf66dc1290",
    10: "3984b39f9b4e0d5437f72fd01fb0c5543e698d5644505780b26740f1b4601860",
    11: "4b5438b52559b11b22287af2669eaedc5d4207b2ce4006840c8051d518b7084a",
    12: "df90336987fc6fa3795eab3671b11df992a48495f3e7afbb7b88abc0e8a62ba8",
    13: "d912eaf6eb555f87d41bbf55bddc6b25b60e237ce9d2d4a94cca9f414049f5bc",
    14: "a7fce41f569a4753cac1305249495f2753b0afc86e7b894900803d30d45d9a9b",
    15: "7d99c88d6883abc9cb6d6702b32a7b344af3af4ab03fa5eb673998e4b3c857de",
    16: "eee50d1f63ee409764313574a2eabdcce272fe03453c796b75e8b7c8ea3c830a",
    17: "7cadeb7d0250f87cc76f4c61b5261609c212310bc2f45c9f8b6d99843faf899a",
    18: "faeac9f6315075bde91fcef2285ae656072f5f7b6540ba0a7b9770a6e3e9bace",
    19: "d04404e4b9f72f5ab614b072a4e20cc8abc3b1ffb824d579fb14b7e05c9a559a",
    20: "90f4d5d42d23ff7beb49b9336b0d6f9c49fce74f3562186678a0779a78fbd6b4",
    21: "18dcfbfb07b6137dcb77dde2c08b1150827d3fcab12e290aeb50595de25ffaae",
}

# the same digests for the c = 0..3 levels of _class_levels(8), which pin
# the canonical masks and |Aut| beside the counts
LEVELS_N8_C3_DIGESTS = {
    7: "52920b7b7e04dc7117e1812726d2f67c6533dcfb288c0af9cf6d9539ce39773f",
    8: "3b0a6609467d5929f9a169cd30878d7678fc43bef2fcf1b01f90cfdcd24e38be",
    9: "cbf0754ff849355902edaa237ebe634aaeb8f5d933b1b1b873078a6d58315f61",
    10: "fbfc22eb69307848c322940dbc5331ffe4ce07b0fd592af889562960be119295",
}

# and for the c = 0..3 levels of _class_levels(9), whose counts CLASSES_C3
# pins; taken when every candidate child was canonicalized
LEVELS_N9_C3_DIGESTS = {
    8: "32404435eaec1ac18933e1674608467ce2c69c5b9f83c7bb13079bc53005290b",
    9: "a4c9fe0808f9a4a1255cac792ed629bb4c996b26f45f0a342e44d046f3e7543e",
    10: "6f2e55da26ad7698a8a70996094908ecc54e63e55ace4bd6c759b41b298fa8b9",
    11: "393ffc22d4b4601988c5b84e4b3389e9104c1862d60e02e782027577b054b7d0",
}


def _digest(classes) -> str:
    # a level's content, whatever order its classes were met in
    return hashlib.sha256(repr(sorted(classes.items())).encode()).hexdigest()


@pytest.fixture(scope="module")
def levels():
    # n -> m -> {canonical mask: |Aut|}, every edge count
    built = {n: dict(_class_levels(n)) for n in range(1, 8)}
    for m, classes in built[7].items():
        assert _digest(classes) == LEVELS_N7_DIGESTS[m], m
    for n, by_m in built.items():
        counts = {m: u for m, u in enumerate(CYCLE_INDEX[n]) if u}
        assert {m: len(classes) for m, classes in by_m.items()} == counts, n
    return built


def test_class_counts_match_oeis_and_the_atlas(levels):
    atlas: dict[tuple[int, int], set[str]] = {}
    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        if n and nx.is_connected(h):
            g = make_graph(n, list(h.edges()))
            atlas.setdefault((n, g.m), set()).add(canonical_form(g))
    for n, by_m in levels.items():
        assert sum(map(len, by_m.values())) == A001349[n], n
        for m, classes in by_m.items():
            forms = {encode_mask(n, mask) for mask in classes}
            assert len(forms) == len(classes)
            assert forms == atlas.get((n, m), set()), (n, m)
    assert sum(map(len, atlas.values())) == sum(A001349.values())


def test_connected_classes_is_one_level(levels):
    for n in range(1, 6):
        full = n * (n - 1) // 2
        for m in range(-1, full + 2):
            assert connected_classes(n, m) == levels[n].get(m, {}), (n, m)
    with pytest.raises(GraphError, match="at least one vertex"):
        connected_classes(0, 0)
    # bad input gets EnumSpec's messages, and n is bounded by the
    # canonical search's limit
    for n, m, message in [
        (5.0, 4, "need at least one vertex, got n=5.0"),
        (True, 0, "need at least one vertex, got n=True"),
        (5, 4.0, "edge count must be an int, got m=4.0"),
        (5, False, "edge count must be an int, got m=False"),
        (11, 10, "class generation is capped at n=10, got n=11"),
    ]:
        with pytest.raises(GraphError) as exc:
            connected_classes(n, m)
        assert str(exc.value) == message


def test_recurrence_reproduces_the_frozen_counts():
    assert {n: sum(RECURRENCE[n]) for n in range(1, 8)} == LABELED_CONNECTED
    slices = sum(
        RECURRENCE[n][m] for n in range(1, 9) for m in range(n - 1, n + 3)
        if m < len(RECURRENCE[n])
    )
    assert slices == ENUMERATED_SLICE_TOTAL


def test_weights_sum_to_the_labeled_counts(levels):
    # labeled `visited` is this weight sum in every scan, dedup or not
    for n, by_m in levels.items():
        order = math.factorial(n)
        for m, classes in by_m.items():
            weight = sum(order // aut for aut in classes.values())
            assert weight == RECURRENCE[n][m], (n, m)
    order = math.factorial(8)
    for m, classes in islice(_class_levels(8), 4):  # c = 0..3
        assert sum(order // aut for aut in classes.values()) == RECURRENCE[8][m], m
        assert len(classes) == CYCLE_INDEX[8][m], m
        assert _digest(classes) == LEVELS_N8_C3_DIGESTS[m], m


def _count_searches(monkeypatch) -> list[int]:
    # one entry per canonical search class generation runs
    calls: list[int] = []
    search = enumeration._canonical_search

    def counted(n, adj):
        calls.append(n)
        return search(n, adj)

    monkeypatch.setattr(enumeration, "_canonical_search", counted)
    return calls


# canonical searches while _class_levels(n) builds its c <= 3 levels; a
# weaker gate or score filter would raise them while every class stayed right
SEARCHES_C3 = {6: 72, 9: 3_589, 10: 13_625}


def test_n6_levels_take_the_pinned_number_of_searches(monkeypatch):
    calls = _count_searches(monkeypatch)
    levels = list(islice(_class_levels(6), 4))
    assert [len(classes) for _, classes in levels] == CYCLE_INDEX[6][5:9]
    assert len(calls) == SEARCHES_C3[6]


def test_n9_levels_pinned_by_content(monkeypatch):
    # the c <= 3 levels at n = 9: content digests, the cycle-index counts,
    # the labeled recurrence's weights and the number of canonical searches
    calls = _count_searches(monkeypatch)
    order = math.factorial(9)
    labeled = labeled_connected_counts(9)[9]
    levels = list(islice(_class_levels(9), 4))
    assert len(calls) == SEARCHES_C3[9]
    assert [len(classes) for _, classes in levels] == list(CLASSES_C3[9])
    for m, classes in levels:
        assert sum(order // aut for aut in classes.values()) == labeled[m], m
        assert _digest(classes) == LEVELS_N9_C3_DIGESTS[m], m


def test_n10_levels_match_the_cycle_index_and_the_recurrence(monkeypatch):
    # the c <= 3 levels at n = 10: class counts, n!/|Aut| weights and the
    # number of canonical searches that built them
    calls = _count_searches(monkeypatch)
    order = math.factorial(10)
    levels = list(islice(_class_levels(10), 4))
    assert len(calls) == SEARCHES_C3[10]
    assert [len(classes) for _, classes in levels] == list(CLASSES_C3[10])
    weights = [sum(order // aut for aut in classes.values()) for _, classes in levels]
    assert weights == labeled_connected_counts(10)[10][9:13]
    assert weights == [100_000_000, 880_107_840, 4_432_075_200, 16_530_124_800]


# trees on n = 1..12 vertices (OEIS A000055), past the edge levels' cap
TREE_CLASSES = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551)


def test_tree_levels_match_the_cycle_index_and_cayley():
    # the first level _class_levels(n) yields is the trees, built before any
    # edge level: one class per tree and n!/|Aut| weights summing to n^(n-2)
    unlabeled = unlabeled_connected_counts(12)
    labeled = labeled_connected_counts(12)
    assert tuple(unlabeled[n][n - 1] for n in range(1, 13)) == TREE_CLASSES
    for n in range(1, 13):
        m, trees = next(_class_levels(n))
        assert (m, len(trees)) == (n - 1, TREE_CLASSES[n - 1]), n
        weight = sum(math.factorial(n) // aut for aut in trees.values())
        assert weight == labeled[n][n - 1] == max(1, n ** (n - 2)), n


def test_a_class_kept_twice_raises(monkeypatch):
    # without the parent-side orbit step, two augmentations in one orbit
    # both pass the canonical-deletion test; a level that let the second
    # overwrite the first would still show every count right
    monkeypatch.setattr(enumeration, "_orbit_reps", lambda points, perms: list(points))
    with pytest.raises(RuntimeError, match="twice"):
        dict(_class_levels(4))


def test_cycle_index_counts_match_oeis():
    assert {n: sum(CYCLE_INDEX[n]) for n in A001349} == A001349
    # A001349 continued
    assert [sum(CYCLE_INDEX[n]) for n in (8, 9, 10)] == [11117, 261080, 11716571]
    for n, row in CLASSES_C3.items():
        assert tuple(CYCLE_INDEX[n][n - 1:n + 3]) == row, n


def test_aut_orders_match_networkx_self_maps(levels):
    for n in range(1, 7):
        for classes in levels[n].values():
            for mask, aut in classes.items():
                h = nx.Graph()
                h.add_nodes_from(range(n))
                h.add_edges_from(graph_of_mask(n, mask).edges)
                maps = sum(1 for _ in GraphMatcher(h, h).isomorphisms_iter())
                assert aut == maps, (n, encode_mask(n, mask))


def _closure(perms, n) -> set[tuple[int, ...]]:
    # the permutation group the perms generate, by breadth-first search
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        p = frontier.pop()
        for perm in perms:
            q = tuple(perm[i] for i in p)
            if q not in group:
                group.add(q)
                frontier.append(q)
    return group


def test_generators_are_automorphisms_generating_aut(levels):
    # class generation keeps one child per orbit of these generators, so a
    # stray non-automorphism would merge orbits and lose classes silently
    rng = random.Random(29)
    for n, by_m in levels.items():
        for classes in by_m.values():
            for mask, aut in classes.items():
                g = graph_of_mask(n, mask)
                perm = list(range(n))
                rng.shuffle(perm)
                h = relabeled(g, perm)
                form, got, gens, _ = _canonical_search(h.n, h._adj)
                assert (form, got) == (mask, aut), (n, encode_mask(n, mask))
                edges = set(g.edges)
                for gen in gens:
                    assert sorted(gen) == list(range(n))
                    moved = {tuple(sorted((gen[u], gen[v]))) for u, v in edges}
                    assert moved == edges, (n, encode_mask(n, mask), gen)
                if n <= 6:
                    h = nx.Graph()
                    h.add_nodes_from(range(n))
                    h.add_edges_from(g.edges)
                    maps = {
                        tuple(iso[v] for v in range(n))
                        for iso in GraphMatcher(h, h).isomorphisms_iter()
                    }
                    assert _closure(gens, n) == maps, (n, encode_mask(n, mask))


def _canonicalized(doc: dict) -> dict:
    # a labeled report turned into what a class scan must print
    for side in ("min", "max"):
        forms = sorted({canonical_form(graph6_decode(g)) for g in doc[side]["graphs"]})
        doc[side]["graphs"] = forms
        doc[side]["classes"] = len(forms)
    doc["dedup"] = True
    return doc


def _kernel_walk_report(spec, index) -> dict:
    # what a labeled (dedup=False) scan must print, from the kernel walk
    visited, lo, hi, lo_masks, hi_masks = _kernel.scan_extremal(spec.n, spec.m, index)
    return {
        "schema": 1, "n": spec.n, "c": spec.c, "m": spec.m, "index": index,
        "dedup": False, "visited": visited,
        "min": {"value": lo, "classes": None,
                "graphs": [encode_mask(spec.n, k) for k in lo_masks]},
        "max": {"value": hi, "classes": None,
                "graphs": [encode_mask(spec.n, k) for k in hi_masks]},
        "wall_time_s": 0.0,
    }


def _json(doc: dict) -> str:
    return json.dumps(dict(doc, wall_time_s=0.0), sort_keys=True, indent=2)


@pytest.mark.parametrize("n", range(1, 7))
def test_class_scans_equal_canonicalized_labeled_scans(n):
    # the labeled side is the kernel walk, which shares no code with class
    # generation; both sides score masks through mask_edges and INDEX_FUNCS,
    # which test_kernel_walk_matches_brute_force checks against the naive
    # definitions in util
    for c in range(4):
        try:
            spec = EnumSpec(n=n, c=c)
        except GraphError:
            continue
        for index in INDEX_IDS:
            walk = _kernel_walk_report(spec, index)
            labeled = extremal_scan(replace(spec, dedup=False), index)
            assert _json(labeled.to_dict()) == _json(walk), (n, c, index)
            rep = extremal_scan(spec, index)
            assert _json(rep.to_dict()) == _json(_canonicalized(walk)), (n, c, index)
