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
from zagreb import _kernel
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

# sha256 of repr(list(classes.items())) for each (m, classes) that
# _class_levels(7) yields: canonical masks, |Aut| and first-seen order;
# taken when every candidate child was canonicalized
LEVELS_N7_DIGESTS = {
    6: "df09d41407601a9e3804b35a066d807d16ccbd43ee58e21d5f9a2962905f9dba",
    7: "f90347dc1584827a388071ac6a9d499648828932d6e768000cf78a18c95c2f18",
    8: "4d2e01867bd37deca5b8fe52e901b5b58627d322d59d28c14715c8a323ae9a65",
    9: "f40673b98e752a0b5bf633aee6d577af86c4d2cc3f7893140968d5bc410267b1",
    10: "5c58fc70d41979624a2e08ea2b27b7c3bbdf8b2a38f155f3fbae743dae1ecdec",
    11: "78750560075d22e3d7a0c026996bf1502f01f846a472a15d02325d7d0354104c",
    12: "f4c266fbb644ea85c56d9784ecf3d16d3dc5ce8fe6eacf417b45172237ff163b",
    13: "3ea6bef37f2f526dc9cc26d394ced3abb7f588dd24190816e17cd3ae138d5c31",
    14: "723c0cbe1fa0ddd83660d9d4d04d3537ee1d0547f4d757cb32b77763ed400e87",
    15: "ccc03ceca272c97fb11804733408201606bb301644ee02961bc4c3d69061eaf5",
    16: "1d9f5a64341eb4276418b0aa1bb0d9fe4f155c42b9b0f6725056f5f53b3e248f",
    17: "cb975a044fb4f00e53d00780e2b121f80fdeb55823b613f73aa8ed2331677673",
    18: "19eabde9f37117542ef9cf19a4755578b7331dafa552e3994aefe25059445302",
    19: "cf166543c896e4088ea5f6d11e351ecd3cc5905fb2f9741784be05d04c838408",
    20: "90f4d5d42d23ff7beb49b9336b0d6f9c49fce74f3562186678a0779a78fbd6b4",
    21: "18dcfbfb07b6137dcb77dde2c08b1150827d3fcab12e290aeb50595de25ffaae",
}

# the same digests for the c = 0..3 levels of _class_levels(8), which pin
# the canonical masks, |Aut| and order beside the counts
LEVELS_N8_C3_DIGESTS = {
    7: "5b6ac4a9dc0c59968eef7e141e4a19def0e218d0de2a98688a98d4cd8d67631e",
    8: "10c82dcbd99d78a8307a98f88b595d672f07f5c6a4d9a82c9f6d9fd7c1296268",
    9: "bd90e2add7ebc38981754f3a7f6c31ac408fcefe5a8e12635867017c6df5985f",
    10: "6e44d35aed986befe8a39944e11c3bfdb2093ae9e4571dbc721131ee942a4ae1",
}

# and for the c = 0..3 levels of _class_levels(9), whose counts CLASSES_C3
# pins; taken before the canonical search read neighbour lists
LEVELS_N9_C3_DIGESTS = {
    8: "c00c4935254e7cfb1f10a9e232389295508fee139880759cdab6134b424c53b7",
    9: "f945b93c3ce47d8a1625da6e603551a562a254c1c65a1a4e648d9e24f59d2df0",
    10: "d53ca726addc13de8d8cd21481b9f3446322f52dd286455deb36fa221d6e9173",
    11: "6a2369240259efa588c7d02f4b6447312944070ba89a6dec8111a0c695c5db3e",
}


@pytest.fixture(scope="module")
def levels():
    # n -> m -> {canonical mask: |Aut|}, every edge count
    built = {n: dict(_class_levels(n)) for n in range(1, 8)}
    for m, classes in built[7].items():
        digest = hashlib.sha256(repr(list(classes.items())).encode()).hexdigest()
        assert digest == LEVELS_N7_DIGESTS[m], m
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
        digest = hashlib.sha256(repr(list(classes.items())).encode()).hexdigest()
        assert digest == LEVELS_N8_C3_DIGESTS[m], m


def test_n9_levels_pinned_by_content():
    # the c <= 3 levels at n = 9: content digests, the cycle-index counts
    # and the labeled recurrence's weights
    order = math.factorial(9)
    labeled = labeled_connected_counts(9)[9]
    levels = list(islice(_class_levels(9), 4))
    assert [len(classes) for _, classes in levels] == list(CLASSES_C3[9])
    for m, classes in levels:
        assert sum(order // aut for aut in classes.values()) == labeled[m], m
        digest = hashlib.sha256(repr(list(classes.items())).encode()).hexdigest()
        assert digest == LEVELS_N9_C3_DIGESTS[m], m


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
                form, got, gens = _canonical_search(h.n, h._adj)
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
    # generation; both sides score graphs through graph_of_mask and
    # INDEX_FUNCS, which test_kernel_walk_matches_brute_force checks against
    # the naive definitions in util
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
