"""The isomorphism-class generator against sources independent of it.

Class counts come from OEIS A001349 and the networkx graph atlas, orbit
weights from the labeled connected-graph recurrence and the frozen
labeled counts of the acceptance gate, |Aut| from networkx's matcher,
and class and labeled scans from the labeled kernel walk.
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
from zagreb import _kernel
from zagreb.enumeration import _class_levels
from zagreb.graph6 import encode_mask, graph_of_mask
from test_acceptance import ENUMERATED_SLICE_TOTAL, LABELED_CONNECTED
from util import labeled_connected_counts

# connected labeled graphs by (n, m), from the recurrence
RECURRENCE = labeled_connected_counts(8)

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
    # the labeled side is the kernel walk, which shares no code with classes
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
