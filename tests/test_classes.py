"""The isomorphism-class generator against sources independent of it.

Class counts come from OEIS A001349 and the networkx graph atlas, orbit
weights from the frozen labeled counts of the acceptance gate, |Aut|
from networkx's matcher, and class scans from the labeled kernel.
"""

import json
import math
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
from zagreb.enumeration import _class_levels
from zagreb.graph6 import encode_mask, graph_of_mask
from test_acceptance import ENUMERATED_SLICE_TOTAL, LABELED_CONNECTED

# connected unlabeled graphs on n vertices
A001349 = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


@pytest.fixture(scope="module")
def levels():
    # n -> m -> {canonical mask: |Aut|}, every edge count
    return {n: dict(_class_levels(n)) for n in range(1, 8)}


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


def test_weights_sum_to_the_labeled_counts(levels):
    for n, by_m in levels.items():
        order = math.factorial(n)
        total = sum(order // aut for classes in by_m.values() for aut in classes.values())
        assert total == LABELED_CONNECTED[n], n
    slices = 0
    for n in range(1, 9):
        order = math.factorial(n)
        for _, classes in islice(_class_levels(n), 4):  # c = 0..3
            slices += sum(order // aut for aut in classes.values())
    assert slices == ENUMERATED_SLICE_TOTAL


def test_aut_orders_match_networkx_self_maps(levels):
    for n in range(1, 7):
        for classes in levels[n].values():
            for mask, aut in classes.items():
                h = nx.Graph()
                h.add_nodes_from(range(n))
                h.add_edges_from(graph_of_mask(n, mask).edges)
                maps = sum(1 for _ in GraphMatcher(h, h).isomorphisms_iter())
                assert aut == maps, (n, encode_mask(n, mask))


def _canonicalized(doc: dict) -> dict:
    # a labeled report turned into what a class scan must print
    for side in ("min", "max"):
        forms = sorted({canonical_form(graph6_decode(g)) for g in doc[side]["graphs"]})
        doc[side]["graphs"] = forms
        doc[side]["classes"] = len(forms)
    doc["dedup"] = True
    return doc


@pytest.mark.parametrize("n", range(1, 7))
def test_class_scans_equal_canonicalized_labeled_scans(n):
    for c in range(4):
        try:
            spec = EnumSpec(n=n, c=c)
        except GraphError:
            continue
        for index in INDEX_IDS:
            rep = extremal_scan(spec, index)
            labeled = extremal_scan(replace(spec, dedup=False), index)
            want = _canonicalized(dict(labeled.to_dict(), wall_time_s=0.0))
            got = dict(rep.to_dict(), wall_time_s=0.0)
            assert json.dumps(got, sort_keys=True, indent=2) == json.dumps(
                want, sort_keys=True, indent=2
            ), (n, c, index)
