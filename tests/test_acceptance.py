"""End-to-end acceptance gate.

One test per advertised guarantee, so ``pytest -v`` prints one pass/fail
line per criterion.  Everything here runs at full contracted scale: the
closed-form family table out to n = 200, exhaustive extremal scans for
cyclomatic numbers 0..3 on 4..8 vertices, the complete rewrite sweep over
every connected graph on up to 7 vertices plus 1000 seeded random graphs,
the line-graph cross-check over the same corpus, and graph6 round trips
across all enumerated slices up to n = 8.

Frozen corpus sizes below were derived once from the labeled-connected
recurrence and are asserted so a silent enumeration bug cannot shrink the
evidence without turning the gate red.
"""

import random
import time
from collections import Counter

import pytest

from zagreb import _kernel
from zagreb import (
    CONSTRUCTORS,
    EnumSpec,
    Graph6Error,
    LEMMA_CLAIMS,
    canonical_form,
    cycle_graph,
    em1,
    em2,
    expected_em1,
    extremal_scan,
    graph6_decode,
    graph6_encode,
    lemma_sweep,
    line_graph,
    m1,
    m2,
    path_graph,
    random_connected_graph,
    reference,
    s_n_k4,
    s_n_m,
    star_graph,
    verify_theorem,
)
from zagreb.graph6 import decode_mask, encode_mask
from util import iter_connected, labeled_connected_counts

# labeled connected graphs per vertex count (all edge counts)
LABELED_CONNECTED = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704, 7: 1866256}

# labeled connected graphs in the enumerated (n <= 8, c <= 3) slices
ENUMERATED_SLICE_TOTAL = 16_929_751


@pytest.fixture(scope="module")
def tricyclic_scans():
    """Exhaustive c = 3 scans for n = 4..8, timed separately at n = 8."""
    reps = {}
    t0 = time.perf_counter()
    for n in range(4, 8):
        reps[n] = extremal_scan(EnumSpec(n=n, c=3), "em1")
    small_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    reps[8] = extremal_scan(EnumSpec(n=8, c=3), "em1")
    large_wall = time.perf_counter() - t0
    return reps, small_wall, large_wall


@pytest.fixture(scope="module")
def low_c_scans():
    t0 = time.perf_counter()
    reps = {
        (n, c): extremal_scan(EnumSpec(n=n, c=c), "em1")
        for c in (0, 1, 2)
        for n in range(4, 9)
    }
    return reps, time.perf_counter() - t0


@pytest.fixture(scope="module")
def sweep_reports():
    return lemma_sweep(trials=1000, seed=0)


def test_criterion_1_family_closed_forms():
    t0 = time.perf_counter()
    checks = 0
    for symbol in sorted(CONSTRUCTORS):
        build = CONSTRUCTORS[symbol]
        for n in range(max(4, reference(symbol).min_n), 201):
            assert em1(build(n)) == expected_em1(symbol, n), (symbol, n)
            checks += 1
    wall = time.perf_counter() - t0
    assert wall < 1.0, f"family table took {wall:.3f}s, budget is 1s"
    print(
        f"criterion 1: PASS - {checks} closed-form values across "
        f"{len(CONSTRUCTORS)} families match direct computation up to "
        f"n=200 in {wall:.3f}s"
    )


def test_criterion_2_tricyclic_maximum_and_witnesses(tricyclic_scans):
    reps, small_wall, large_wall = tricyclic_scans
    for n in range(4, 9):
        rep = reps[n]
        want = n**3 - 5 * n**2 + 20 * n + 32
        assert rep.max_value == want, (n, rep.max_value, want)
        if n == 4:
            # only K4 realizes c = 3 on four vertices
            assert rep.max_graphs == (canonical_form(s_n_k4(4)),)
            assert rep.max_value == 96
        else:
            assert rep.max_classes == 2, (n, rep.max_graphs)
            assert set(rep.max_graphs) == {
                canonical_form(s_n_m(n, n + 2)),
                canonical_form(s_n_k4(n)),
            }, (n, rep.max_graphs)
    assert small_wall < 60.0, f"n<=7 scans took {small_wall:.1f}s"
    assert large_wall < 540.0, f"n=8 scan took {large_wall:.1f}s"
    visited = sum(reps[n].visited for n in range(4, 9))
    print(
        "criterion 2: PASS - tricyclic maximum equals n^3-5n^2+20n+32 for "
        f"n=4..8 with exactly the two expected witness classes (n>=5; K4 "
        f"alone at n=4), {visited} graphs scanned, n<=7 in "
        f"{small_wall:.1f}s, n=8 in {large_wall:.1f}s"
    )


def test_criterion_3_tricyclic_minimum_floor(tricyclic_scans):
    reps, _, _ = tricyclic_scans
    rows = []
    for n in range(4, 9):
        rep = reps[n]
        floor = 4 * n + 68
        assert rep.min_value >= floor, (n, rep.min_value, floor)
        rows.append(f"n={n}: {rep.min_value}>={floor} attained={rep.min_value == floor}")
    print("criterion 3: PASS - tricyclic minimum floor 4n+68 holds; " + ", ".join(rows))


def test_criterion_4_tree_unicyclic_bicyclic_extremes(low_c_scans):
    reps, wall = low_c_scans
    for n in range(4, 9):
        tree = reps[(n, 0)]
        assert tree.min_value == 4 * n - 10
        assert tree.min_graphs == (canonical_form(path_graph(n)),)
        assert tree.max_value == (n - 1) * (n - 2) ** 2
        assert tree.max_graphs == (canonical_form(star_graph(n)),)

        uni = reps[(n, 1)]
        assert uni.min_value == 4 * n
        assert uni.min_graphs == (canonical_form(cycle_graph(n)),)
        assert uni.max_value == n**3 - 5 * n**2 + 12 * n - 6
        assert uni.max_graphs == (canonical_form(s_n_m(n, n)),)

        bi = reps[(n, 2)]
        assert bi.max_value == n**3 - 5 * n**2 + 16 * n + 4
        assert bi.max_graphs == (canonical_form(s_n_m(n, n + 1)),)
        assert bi.min_value >= 4 * n + 34, (n, bi.min_value)
    assert wall < 300.0, f"c=0,1,2 scans took {wall:.1f}s, budget is 300s"
    visited = sum(rep.visited for rep in reps.values())
    print(
        "criterion 4: PASS - path/star, cycle/S_n^n and bicyclic extremes "
        f"verified exhaustively for n=4..8 ({visited} graphs) in {wall:.1f}s"
    )


def test_criterion_5_rewrite_monotonicity_sweep(sweep_reports):
    corpus_size = sum(LABELED_CONNECTED.values()) + 1000
    details = []
    for claim in LEMMA_CLAIMS:
        rep = sweep_reports[claim]
        assert rep.passed, rep.to_json()
        assert rep.counterexamples == ()
        corpus_row = next(r for r in rep.rows if "corpus_size" in r)
        assert corpus_row["violations"] == 0
        assert corpus_row["sites"] >= 100, (claim, corpus_row["sites"])
        assert corpus_row["corpus_size"] == corpus_size
        assert corpus_row["enumerated_max_n"] == 7
        assert corpus_row["random_trials"] == 1000
        details.append(f"{claim}: {corpus_row['sites']} sites")
    print(
        "criterion 5: PASS - strict monotonicity held at every site over "
        f"{corpus_size} graphs with zero violations ({', '.join(details)})"
    )


def test_criterion_6_line_graph_oracle():
    t0 = time.perf_counter()
    enumerated = 0
    edgeless = 0
    slices = Counter()
    for g in iter_connected(7):
        slices[g.n, g.m] += 1
        if g.m == 0:
            edgeless += 1  # K1: line graph undefined, nothing to check
            continue
        lg = line_graph(g)
        assert em1(g) == m1(lg), graph6_encode(g)
        assert em2(g) == m2(lg), graph6_encode(g)
        enumerated += 1
    assert enumerated + edgeless == sum(LABELED_CONNECTED.values())
    counts = labeled_connected_counts(7)
    assert slices == {
        (n, m): c for n, row in counts.items() for m, c in enumerate(row) if c
    }

    rng = random.Random(0)
    for _ in range(1000):
        g = random_connected_graph(rng)
        lg = line_graph(g)
        assert em1(g) == m1(lg), graph6_encode(g)
        assert em2(g) == m2(lg), graph6_encode(g)
    wall = time.perf_counter() - t0
    print(
        f"criterion 6: PASS - em1/em2 agree exactly with m1/m2 of the line "
        f"graph on {enumerated} enumerated plus 1000 random graphs "
        f"in {wall:.1f}s"
    )


def test_criterion_7_graph6_round_trip():
    t0 = time.perf_counter()

    # decode(encode(.)) is the identity on every enumerated slice n <= 8
    checked = 0
    counts = labeled_connected_counts(8)
    for n in range(1, 9):
        full = n * (n - 1) // 2
        for c in range(4):
            m = n - 1 + c
            if m > full:
                continue

            def round_trip(mask, n=n):
                line = encode_mask(n, mask)
                if decode_mask(line) != (n, mask):
                    raise AssertionError(
                        f"graph6 round trip broke: n={n} mask={mask} -> {line!r}"
                    )

            visited = _kernel.visit_connected(n, m, 0, None, round_trip)
            assert visited == counts[n][m], (n, m)
            checked += visited
    assert checked == ENUMERATED_SLICE_TOTAL

    # whole-Graph round trips, exhaustive for n <= 6, sampled beyond
    graphs = 0
    for g in iter_connected(6):
        assert graph6_decode(graph6_encode(g)) == g
        graphs += 1
    assert graphs == sum(LABELED_CONNECTED[n] for n in range(1, 7))
    rng = random.Random(1)
    for _ in range(2000):
        g = random_connected_graph(rng)
        assert graph6_decode(graph6_encode(g)) == g
    big = path_graph(100)  # exercises the multi-byte size header
    assert graph6_decode(graph6_encode(big)) == big

    assert graph6_encode(s_n_k4(4)) == "C~"

    malformed = [
        ("", "empty graph6 line", None),
        ("C" + chr(33), "outside graph6 range", 1),
        ("C", "need 1 adjacency bytes", 1),
        ("Dhc?", "trailing garbage", 3),
        ("~~~~", "n > 258047", 1),
        ("~?", "truncated extended size prefix", 2),
        ("?", "zero vertices", 0),
        ("Bx", "padding bit", 1),
    ]
    for line, fragment, position in malformed:
        with pytest.raises(Graph6Error) as exc:
            graph6_decode(line)
        assert fragment in str(exc.value), (line, str(exc.value))
        if position is not None:
            assert exc.value.position == position, (line, exc.value.position)

    wall = time.perf_counter() - t0
    print(
        f"criterion 7: PASS - graph6 identity on {checked} enumerated masks "
        f"(n<=8) and {graphs}+2001 whole graphs, K4 encodes as 'C~', "
        f"{len(malformed)} malformed inputs rejected with positions, "
        f"in {wall:.1f}s"
    )


def test_criterion_8_scan_determinism():
    docs = []
    for _ in range(2):
        doc = extremal_scan(EnumSpec(n=7, c=3), "em1").to_dict()
        doc.pop("wall_time_s")
        docs.append(doc)
    assert docs[0] == docs[1]
    labeled = extremal_scan(EnumSpec(n=7, c=3, dedup=False), "em1")
    visited, lo, hi, lo_masks, hi_masks = _kernel.scan_extremal(7, 9, "em1")
    assert (labeled.visited, labeled.min_value, labeled.max_value) == (visited, lo, hi)
    assert labeled.min_graphs == tuple(encode_mask(7, k) for k in lo_masks)
    assert labeled.max_graphs == tuple(encode_mask(7, k) for k in hi_masks)
    assert labeled.visited == docs[0]["visited"]
    print(
        f"criterion 8: PASS - two n=7, c=3 class scans agree once timing is "
        f"stripped, and the labeled report equals the kernel walk of all "
        f"{visited} labeled graphs ({len(lo_masks)} min and {len(hi_masks)} "
        f"max witnesses)"
    )


def test_tricyclic_theorems_pinned_at_n9():
    # n=9 sits behind allow_large; visited is the labeled recurrence's
    # c(9, 11), not a count taken from the class generator
    t0 = time.perf_counter()
    floor = verify_theorem("theorem-4", ns=[9], allow_large=True)
    peak = verify_theorem("theorem-5", ns=[9], allow_large=True)
    assert floor.passed and peak.passed
    (frow,), (prow,) = floor.rows, peak.rows
    assert frow["visited"] == prow["visited"] == 405_918_324
    assert frow["visited"] == labeled_connected_counts(9)[9][11]
    assert frow["floor"] == 4 * 9 + 68 == 104 and frow["min"] >= 104
    assert prow["max"] == prow["expected_max"] == 9**3 - 5 * 9**2 + 20 * 9 + 32 == 536
    assert sorted(prow["max_witnesses"]) == sorted(
        {canonical_form(s_n_m(9, 11)), canonical_form(s_n_k4(9))}
    )
    print(
        f"n=9 tricyclic: PASS - {frow['visited']} labeled graphs, min "
        f"{frow['min']} >= floor 104, max 536 at s_n_m(9, 11) and s_n_k4(9), "
        f"in {time.perf_counter() - t0:.1f}s"
    )
