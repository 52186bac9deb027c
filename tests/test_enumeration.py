import hashlib
import json
import os
import subprocess
import sys

import pytest

from zagreb import (
    EnumSpec,
    GraphError,
    brace_census,
    canonical_form,
    cycle_graph,
    enumerate_connected,
    extremal_scan,
    graph6_decode,
    s_n_k4,
    s_n_m,
)
from zagreb import _kernel
from util import bf_connected, naive_em1, naive_em2, naive_m1, naive_m2

NAIVE = {"m1": naive_m1, "m2": naive_m2, "em1": naive_em1, "em2": naive_em2}


def test_enum_spec_validation():
    spec = EnumSpec(n=6, c=2)
    assert spec.m == 7
    with pytest.raises(GraphError, match="cyclomatic number"):
        EnumSpec(n=6, c=4)
    with pytest.raises(GraphError, match="no connected graph"):
        EnumSpec(n=3, c=3)
    with pytest.raises(GraphError, match="capped at"):
        EnumSpec(n=10, c=1)
    with pytest.raises(GraphError, match="allow_large"):
        EnumSpec(n=9, c=3)
    EnumSpec(n=9, c=3, allow_large=True)
    with pytest.raises(GraphError, match="workers"):
        EnumSpec(n=5, c=1, workers=0)


def test_enumeration_matches_brute_force():
    # same labeled edge sets, not just the same counts
    for n in range(2, 6):
        for c in range(0, 4):
            try:
                spec = EnumSpec(n=n, c=c)
            except GraphError:
                continue
            got = set()
            enumerate_connected(spec, lambda g: got.add(g.edges))
            want = {g.edges for g in bf_connected(n, spec.m)}
            assert got == want, (n, c)


def _column_mask(g):
    # edge (u, v), u < v, has index v(v-1)/2 + u in column order
    return sum(1 << (v * (v - 1) // 2 + u) for u, v in g.edges)


def _edge_indices(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


@pytest.mark.parametrize("n", range(1, 7))
def test_kernel_walk_matches_brute_force(n):
    # slices partition the walk, the walk is lexicographic in edge indices,
    # and every kernel entry point agrees with brute force at every m
    full = n * (n - 1) // 2
    for m in range(full + 1):
        graphs = {_column_mask(g): g for g in bf_connected(n, m)}
        whole = []
        assert _kernel.visit_connected(n, m, 0, None, whole.append) == len(whole)
        assert sorted(whole) == sorted(graphs)
        keys = [_edge_indices(mask) for mask in whole]
        assert keys == sorted(keys)
        if m:
            parts = []
            for i in range(full):
                part = []
                _kernel.visit_connected(n, m, i, i + 1, part.append)
                assert all(_edge_indices(mask)[0] == i for mask in part)
                parts += part
            assert parts == whole
        for index, naive in NAIVE.items():
            values = {mask: naive(g) for mask, g in graphs.items()}
            visited, lo, hi, lo_masks, hi_masks = _kernel.scan_extremal(n, m, index)
            assert visited == len(graphs), (m, index)
            if not graphs:
                assert (lo, hi, lo_masks, hi_masks) == (None, None, [], [])
                continue
            assert (lo, hi) == (min(values.values()), max(values.values())), (m, index)
            assert lo_masks == [k for k in whole if values[k] == lo], (m, index)
            assert hi_masks == [k for k in whole if values[k] == hi], (m, index)


# sha256 of repr(scan_extremal(7, m, index)) for m1, m2, em1, em2 in turn,
# taken when the kernel still had its own index formulas
KERNEL_N7_DIGESTS = {
    6: "e421b243b79c9ff108fdc4c0ca4daef5a53eccbed69defa2a4a1aaece9757f17",
    7: "bc811e6bc9b63f183223599f591a356c21efc58a5356417a72777ea5be9bc230",
    18: "0f585c58c90de36e8e4e787fea012282f71367ed3b6d1adf4183bf5bdde48872",
}


def test_kernel_pinned_past_brute_force_size():
    for m, digest in KERNEL_N7_DIGESTS.items():
        h = hashlib.sha256()
        for index in ("m1", "m2", "em1", "em2"):
            h.update(repr(_kernel.scan_extremal(7, m, index)).encode())
        assert h.hexdigest() == digest, m


def test_visitor_streams_valid_graphs():
    spec = EnumSpec(n=6, c=1)
    seen = []

    def visitor(g):
        assert g.n == 6 and g.m == 6
        seen.append(g)

    count = enumerate_connected(spec, visitor)
    rep = extremal_scan(spec, "em1")
    assert count == len(seen) == rep.visited


# frozen from the first validated run of this code; visited counts also
# re-derivable from the labeled connected-graph recurrence
FROZEN_SCANS = [
    (5, 3, 120, 98, 132, 1, 2),
    (6, 0, 1296, 14, 80, 1, 1),
    (6, 3, 6165, 100, 188, 3, 2),
]


@pytest.mark.parametrize("n, c, visited, lo, hi, lo_classes, hi_classes", FROZEN_SCANS)
def test_frozen_scan_results(n, c, visited, lo, hi, lo_classes, hi_classes):
    rep = extremal_scan(EnumSpec(n=n, c=c), "em1")
    assert rep.visited == visited
    assert (rep.min_value, rep.max_value) == (lo, hi)
    assert (rep.min_classes, rep.max_classes) == (lo_classes, hi_classes)


def test_scan_witnesses_decode_to_the_reported_value():
    rep = extremal_scan(EnumSpec(n=6, c=3), "em1")
    for line in rep.min_graphs:
        assert naive_em1(graph6_decode(line)) == rep.min_value
    for line in rep.max_graphs:
        assert naive_em1(graph6_decode(line)) == rep.max_value


def test_tricyclic_max_witnesses_are_the_named_families():
    rep = extremal_scan(EnumSpec(n=5, c=3), "em1")
    assert set(rep.max_graphs) == {
        canonical_form(s_n_m(5, 7)),
        canonical_form(s_n_k4(5)),
    }


def test_no_dedup_reports_labeled_witnesses():
    rep = extremal_scan(EnumSpec(n=5, c=3, dedup=False), "em1")
    assert rep.min_classes is None and rep.max_classes is None
    assert len(rep.max_graphs) == 30
    forms = {canonical_form(graph6_decode(w)) for w in rep.max_graphs}
    dedup = extremal_scan(EnumSpec(n=5, c=3), "em1")
    assert forms == set(dedup.max_graphs)


@pytest.mark.parametrize("workers", [2, 5])
def test_worker_count_does_not_change_the_report(workers):
    base = extremal_scan(EnumSpec(n=6, c=2), "em1").to_dict()
    par = extremal_scan(EnumSpec(n=6, c=2, workers=workers), "em1").to_dict()
    base.pop("wall_time_s")
    par.pop("wall_time_s")
    assert base == par


def test_labeled_scan_report_is_worker_count_invariant():
    # only a labeled scan fans out, so this is the test of the worker pool
    docs = []
    for workers in (1, 2, 5):
        doc = extremal_scan(EnumSpec(n=6, c=2, dedup=False, workers=workers), "em1").to_dict()
        doc.pop("wall_time_s")
        docs.append(doc)
    assert docs[0] == docs[1] == docs[2]
    assert docs[0]["visited"] == 5700 and len(docs[0]["max"]["graphs"]) == 180


def test_report_json_shape():
    rep = extremal_scan(EnumSpec(n=5, c=1), "em1")
    doc = json.loads(rep.to_json())
    assert doc["schema"] == 1
    assert doc["n"] == 5 and doc["c"] == 1 and doc["m"] == 5
    assert doc["min"]["value"] == rep.min_value
    assert doc["max"]["graphs"] == list(rep.max_graphs)


def test_bad_index_rejected():
    with pytest.raises(GraphError, match="unknown index"):
        extremal_scan(EnumSpec(n=5, c=1), "zagreb3")
    with pytest.raises(ValueError, match="unknown index"):
        _kernel.scan_extremal(5, 4, "zagreb3")


# pinned pendant-free cores; the unicyclic core can only be the cycle
FROZEN_BRACES = [
    (5, 1, ("DLo",)),
    (6, 1, ("EBj?",)),
    (6, 2, ("EKNG", "EKYW", "E_]o", "EoDw", "EoLW")),
]


@pytest.mark.parametrize("n, c, forms", FROZEN_BRACES)
def test_brace_census_pins(n, c, forms):
    assert brace_census(EnumSpec(n=n, c=c)) == forms


def test_brace_census_unicyclic_is_the_cycle():
    assert brace_census(EnumSpec(n=7, c=1)) == (canonical_form(cycle_graph(7)),)


def test_brace_census_needs_a_cycle():
    with pytest.raises(GraphError, match="needs a cycle"):
        brace_census(EnumSpec(n=6, c=0))


def test_kernel_env_override():
    env = dict(os.environ, ZAGREB_KERNEL="py")
    out = subprocess.run(
        [sys.executable, "-c", "import zagreb; print(zagreb.BACKEND)"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert out.stdout.strip() == "py"
    for value in ("turbo", "cy"):
        env["ZAGREB_KERNEL"] = value
        out = subprocess.run(
            [sys.executable, "-c", "import zagreb"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert out.returncode != 0 and "ZAGREB_KERNEL" in out.stderr, value
