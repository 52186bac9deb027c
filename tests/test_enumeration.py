import hashlib
import json
import subprocess
import sys

import pytest

from zagreb import (
    EnumSpec,
    GraphError,
    brace_census,
    canonical_form,
    compute_index,
    cycle_graph,
    extremal_scan,
    graph6_decode,
    s_n_k4,
    s_n_m,
)
from zagreb import _kernel
from zagreb.graph6 import graph_of_mask
from util import bf_connected, naive_em1, naive_em2, naive_m1, naive_m2

NAIVE = {"m1": naive_m1, "m2": naive_m2, "em1": naive_em1, "em2": naive_em2}


CAP_10 = "enumeration is capped at n=9, got n=10"
GATE_9 = (
    "n=9 at c=3 means roughly C(36,11) ~ 6e8 edge subsets; "
    "pass allow_large=True (CLI: --allow-large) to run it anyway"
)


def test_enum_spec_validation():
    spec = EnumSpec(n=6, c=2)
    assert spec.m == 7
    with pytest.raises(GraphError, match="cyclomatic number"):
        EnumSpec(n=6, c=4)
    with pytest.raises(GraphError, match="no connected graph"):
        EnumSpec(n=3, c=3)
    for kwargs, message in [
        ({"n": 10, "c": 1}, CAP_10),
        ({"n": 10, "c": 3, "allow_large": True}, CAP_10),
        ({"n": 12, "c": 0}, "enumeration is capped at n=9, got n=12"),
        ({"n": 9, "c": 3}, GATE_9),
        # n and c are plain ints: a bool or a float is refused, not carried
        # into a report or into arithmetic that fails later
        ({"n": 5, "c": True}, "cyclomatic number must be 0..3, got True"),
        ({"n": 5, "c": 1.0}, "cyclomatic number must be 0..3, got 1.0"),
        ({"n": 5.0, "c": 1}, "need at least one vertex, got n=5.0"),
        ({"n": True, "c": 0}, "need at least one vertex, got n=True"),
        ({"n": "5", "c": 1}, "need at least one vertex, got n='5'"),
        # the flags are bools: 0 or "no" would be written into a report or
        # read as true
        ({"n": 4, "c": 0, "dedup": 0}, "dedup must be True or False, got 0"),
        ({"n": 9, "c": 3, "allow_large": "no"}, "allow_large must be True or False, got 'no'"),
    ]:
        with pytest.raises(GraphError) as exc:
            EnumSpec(**kwargs)
        assert str(exc.value) == message, kwargs
    EnumSpec(n=9, c=3, allow_large=True)


def test_enumeration_matches_brute_force():
    # same labeled edge sets, not just the same counts
    for n in range(2, 6):
        for c in range(0, 4):
            try:
                spec = EnumSpec(n=n, c=c)
            except GraphError:
                continue
            got = set()
            _kernel.visit_connected(
                n, spec.m, 0, None, lambda mask: got.add(graph_of_mask(n, mask).edges)
            )
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
    # more edges than K_n has, and an empty first-edge slice [lo, hi), deliver
    # nothing and never call back
    for m, lo, hi in ((full + 1, 0, None), (max(full, 1), full, full)):
        calls = []
        assert _kernel.visit_connected(n, m, lo, hi, calls.append) == 0, (m, lo, hi)
        assert calls == [], (m, lo, hi)


# sha256 of repr(scan_extremal(7, m, index)) for m1, m2, em1, em2 in turn,
# taken when the kernel still had its own index formulas
KERNEL_N7_DIGESTS = {
    6: "e421b243b79c9ff108fdc4c0ca4daef5a53eccbed69defa2a4a1aaece9757f17",
    7: "bc811e6bc9b63f183223599f591a356c21efc58a5356417a72777ea5be9bc230",
    18: "0f585c58c90de36e8e4e787fea012282f71367ed3b6d1adf4183bf5bdde48872",
}


# sha256 of the masks visit_connected(7, m) delivers, each as b"%d,", in
# walk order; taken when connectivity was still a union-find per frame
VISIT_N7_DIGESTS = {
    6: "7f2b0130c360e6406259fafed288483849256595974e68834fb552bdeb3d14e9",
    9: "722f4c5f6cc402913a0c953771f955cabb011517582ca5e8eedab21841b30c69",
    12: "18967e660603d8107926eff85bf2b0ccea58aca62721e6fa4f528150ddfd96d2",
    16: "80dc22498ded406364d6b1a7ad0381063e3fc4b9ec9b8c722d0f4ade1f5f22dd",
}


def test_kernel_pinned_past_brute_force_size():
    for m, digest in KERNEL_N7_DIGESTS.items():
        h = hashlib.sha256()
        for index in ("m1", "m2", "em1", "em2"):
            h.update(repr(_kernel.scan_extremal(7, m, index)).encode())
        assert h.hexdigest() == digest, m
    for m, digest in VISIT_N7_DIGESTS.items():
        h = hashlib.sha256()
        _kernel.visit_connected(7, m, 0, None, lambda mask: h.update(b"%d," % mask))
        assert h.hexdigest() == digest, m


def test_visitor_streams_valid_graphs():
    spec = EnumSpec(n=6, c=1)
    seen = []

    def visitor(mask):
        g = graph_of_mask(6, mask)
        assert g.n == 6 and g.m == 6
        seen.append(g)

    count = _kernel.visit_connected(6, spec.m, 0, None, visitor)
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


def test_labeled_scan_report_pins():
    # every labeled member of the extreme classes, and the labeled count
    doc = extremal_scan(EnumSpec(n=6, c=2, dedup=False), "em1").to_dict()
    assert doc["visited"] == 5700 and len(doc["max"]["graphs"]) == 180


def test_import_starts_no_process_machinery():
    # scans run in one process; importing the package pulls in no pool
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, zagreb; print(sorted({'multiprocessing', "
         "'concurrent.futures'} & set(sys.modules)))"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0 and out.stdout.strip() == "[]", out.stderr


def test_report_json_shape():
    rep = extremal_scan(EnumSpec(n=5, c=1), "em1")
    doc = json.loads(rep.to_json())
    assert doc["schema"] == 1
    assert doc["n"] == 5 and doc["c"] == 1 and doc["m"] == 5
    assert doc["min"]["value"] == rep.min_value
    assert doc["max"]["graphs"] == list(rep.max_graphs)


@pytest.mark.parametrize(
    "call, message",
    [
        # n is a plain int >= 1: a bool is not run as n = 1, a float not walked
        (lambda: _kernel.scan_extremal(True, 0, "em1"), "need at least one vertex, got n=True"),
        (lambda: _kernel.scan_extremal(4.0, 3, "em1"), "need at least one vertex, got n=4.0"),
        (lambda: _kernel.scan_extremal(0, 0, "em1"), "need at least one vertex, got n=0"),
        (lambda: _kernel.visit_connected("5", 4, 0, None, print),
         "need at least one vertex, got n='5'"),
        (lambda: _kernel.visit_connected(5, -1, 0, None, print),
         "edge count must be a nonnegative int, got m=-1"),
        (lambda: _kernel.visit_connected(5, 4.0, 0, None, print),
         "edge count must be a nonnegative int, got m=4.0"),
    ],
)
def test_kernel_refuses_a_bad_order_or_size(call, message):
    with pytest.raises(GraphError) as exc:
        call()
    assert str(exc.value) == message


def test_bad_index_rejected():
    # one lookup, so one error text, wherever an index id is read
    for call in (
        lambda: compute_index(cycle_graph(5), "zagreb3"),
        lambda: extremal_scan(EnumSpec(n=5, c=1), "zagreb3"),
        lambda: _kernel.scan_extremal(5, 4, "zagreb3"),
    ):
        with pytest.raises(GraphError) as exc:
            call()
        assert str(exc.value) == "unknown index 'zagreb3', choose from m1, m2, em1, em2"


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


def test_package_import_leaves_the_labeled_kernel_unloaded():
    # the class path walks no labeled graphs, so neither the package nor
    # its CLI loads the labeled walk; the one backend is pure Python
    code = (
        "import sys, zagreb, zagreb.cli; print(zagreb.BACKEND, "
        "sorted({'zagreb._kernel', 'zagreb._corepy'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "py []"
