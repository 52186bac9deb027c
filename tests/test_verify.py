import hashlib
import json
import random
from itertools import product

import pytest

import zagreb.rewrite as rewrite_mod
import zagreb.verify as verify_mod
from zagreb import _kernel, enumeration
from zagreb import (
    CANON_LIMIT,
    GraphError,
    LEMMA_CLAIMS,
    THEOREM_CLAIMS,
    canonical_form,
    cycle_graph,
    cyclomatic_number,
    graph6_decode,
    is_connected,
    make_graph,
    path_graph,
    random_connected_graph,
    s_n_k4,
    s_n_m,
    star_graph,
    verify_lemma,
    verify_theorem,
)
from util import naive_em1


def test_claim_rosters():
    assert THEOREM_CLAIMS == tuple(f"theorem-{i}" for i in range(1, 6))
    assert LEMMA_CLAIMS == tuple(f"lemma-{i}" for i in range(1, 5))
    # an unknown claim, hashable or not, gets the one unknown-claim error
    for check, claim, message in [
        (verify_theorem, "theorem-9", "unknown theorem claim 'theorem-9'"),
        (verify_theorem, ["theorem-1"], "unknown theorem claim ['theorem-1']"),
        (verify_lemma, "lemma-9", "unknown lemma claim 'lemma-9'"),
        (verify_lemma, ["lemma-1"], "unknown lemma claim ['lemma-1']"),
    ]:
        with pytest.raises(GraphError) as exc:
            check(claim)
        assert str(exc.value).startswith(message + ", choose from (")
    with pytest.raises(GraphError, match="n >= 4"):
        verify_theorem("theorem-1", ns=[3, 4])


def test_theorem_1_trees():
    rep = verify_theorem("theorem-1", ns=[4, 5, 6])
    assert rep.passed and not rep.counterexamples
    for row in rep.rows:
        n = row["n"]
        assert row["min_witnesses"] == [canonical_form(path_graph(n))]
        assert row["max_witnesses"] == [canonical_form(star_graph(n))]
        assert row["min"] == 4 * n - 10
        assert row["max"] == (n - 1) * (n - 2) ** 2


def test_theorem_2_unicyclic():
    rep = verify_theorem("theorem-2", ns=[5])
    (row,) = rep.rows
    assert rep.passed
    assert row["min"] == 20 and row["min_witnesses"] == [canonical_form(cycle_graph(5))]
    assert row["max"] == 54 and row["max_witnesses"] == [canonical_form(s_n_m(5, 5))]


def test_theorem_3_bicyclic_floor_and_max():
    rep = verify_theorem("theorem-3", ns=[4, 5, 6])
    assert rep.passed
    rows = {row["n"]: row for row in rep.rows}
    assert rows[4]["floor"] == 50 and rows[4]["min"] == 52 and not rows[4]["attained"]
    assert rows[5]["floor"] == 54 and rows[5]["attained"]
    assert rows[6]["floor"] == 58 and rows[6]["attained"]
    assert rows[6]["max"] == 136 == rows[6]["expected_max"]


def test_theorem_4_reports_attainment_without_asserting_it():
    rep = verify_theorem("theorem-4", ns=[4, 5])
    assert rep.passed
    rows = {row["n"]: row for row in rep.rows}
    assert rows[4]["min"] == 96 and rows[4]["floor"] == 84
    assert rows[4]["attained"] is False
    assert rows[5]["min"] == 98 and rows[5]["floor"] == 88
    assert "expected_max" not in rows[4]


def test_theorem_5_witnesses():
    rep = verify_theorem("theorem-5", ns=[4, 5])
    assert rep.passed
    rows = {row["n"]: row for row in rep.rows}
    # at n=4 the only tricyclic graph is K4 itself
    assert rows[4]["max"] == 96
    assert rows[4]["max_witnesses"] == [canonical_form(s_n_k4(4))]
    assert rows[5]["max"] == 132 and rows[5]["visited"] == 120
    assert set(rows[5]["max_witnesses"]) == {
        canonical_form(s_n_m(5, 7)),
        canonical_form(s_n_k4(5)),
    }


def test_theorem_reports_are_deterministic():
    a = verify_theorem("theorem-2", ns=[4, 5]).to_dict()
    b = verify_theorem("theorem-2", ns=[4, 5]).to_dict()
    a.pop("wall_time_s")
    b.pop("wall_time_s")
    assert a == b


def test_theorem_failure_embeds_counterexamples(monkeypatch):
    # doctor the claims table: trees do not peak at the cycle's value
    bogus = dict(verify_mod._THEOREMS)
    bogus["theorem-1"] = {
        "c": 0, "min": ("path",), "max": ("cycle",), "note": "trees peak at the cycle",
    }
    monkeypatch.setattr(verify_mod, "_THEOREMS", bogus)
    rep = verify_theorem("theorem-1", ns=[5])
    assert not rep.passed
    assert rep.counterexamples
    for cex in rep.counterexamples:
        if cex["check"] == "max value":
            g = graph6_decode(cex["graphs"][0])
            assert naive_em1(g) == cex["observed"] != cex["expected"]


def test_theorem_floor_failure_embeds_its_counterexample(monkeypatch):
    # doctor the claims table: theorem-5's maximum stands in as theorem-4's floor
    bogus = dict(verify_mod._THEOREMS)
    bogus["theorem-4"] = {**bogus["theorem-4"], "floor": "snm3"}
    monkeypatch.setattr(verify_mod, "_THEOREMS", bogus)
    rep = verify_theorem("theorem-4", ns=[5])
    assert not rep.passed
    assert rep.counterexamples == (
        {"n": 5, "check": "min floor", "bound": 132, "observed": 98, "graphs": ["Dr["]},
    )
    assert rep.rows[0]["attained"] is False


def test_theorem_orders_validated_before_any_scan(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a scan ran before every order was validated")

    monkeypatch.setattr(_kernel, "scan_extremal", refuse)
    monkeypatch.setattr(enumeration, "connected_classes", refuse)
    monkeypatch.setattr(enumeration, "_class_levels", refuse)
    cap = "enumeration is capped at n=9, got n={}"
    gate = (
        "n=9 at c=3 means roughly C(36,11) ~ 6e8 edge subsets; "
        "pass allow_large=True (CLI: --allow-large) to run it anyway"
    )
    floor = "theorem checks run at n >= 4, got {}"
    for claim, ns, message in [
        ("theorem-2", [4, 5, 6, 7, 10], cap.format(10)),
        ("theorem-2", [12, 4], cap.format(12)),
        ("theorem-1", range(4, 16, 4), cap.format(12)),
        # the cap is checked first, as the CLI does: it outranks the floor
        # and the n=9 gate
        ("theorem-1", [2, 10], cap.format(10)),
        ("theorem-4", range(3, 11), cap.format(10)),
        ("theorem-4", range(4, 10), gate),
        ("theorem-4", range(9, 3, -1), gate),
        ("theorem-1", [3, 4], floor.format("n=3")),
        ("theorem-1", [], floor.format("[]")),
        ("theorem-1", range(5, 5), floor.format("[]")),
        # orders are plain ints, in an iterable
        ("theorem-1", 5, "ns must be an iterable of orders, got 5"),
        ("theorem-1", "45", "theorem orders must be ints, got '4'"),
        ("theorem-1", [4.0], "theorem orders must be ints, got 4.0"),
        ("theorem-1", [True, 5], "theorem orders must be ints, got True"),
    ]:
        with pytest.raises(GraphError) as exc:
            verify_theorem(claim, ns=ns)
        assert str(exc.value) == message, (claim, ns)
    # a flag that is not a bool never opens the gated n=9 scan
    with pytest.raises(GraphError) as exc:
        verify_theorem("theorem-4", ns=[9], allow_large="no")
    assert str(exc.value) == "allow_large must be True or False, got 'no'"


def test_canon_limit_covers_every_admitted_order():
    # the theorem checks canonicalize the witness families at every order
    # EnumSpec admits; canon cannot import the order table, so this ties them
    top = max(hi for _, hi in enumeration.ORDER_CAPS.values())
    assert CANON_LIMIT >= top
    for cfg in verify_mod._THEOREMS.values():
        for side in ("min", "max"):
            if side in cfg:
                _, forms = verify_mod._expected(cfg[side], top)
                assert all(graph6_decode(f).n == top for f in forms)


def test_lemma_fixture_rows():
    want = {
        "lemma-1": (18, 36),
        "lemma-2": (62, 202),
        "lemma-3": (26, 16),
        "lemma-4": (10, 18),
    }
    for claim, (before, after) in want.items():
        rep = verify_lemma(claim, trials=10, seed=2, enum_max=4)
        fixture = rep.rows[0]
        assert fixture["kind"] == "fixture"
        assert (fixture["em1_before"], fixture["em1_after"]) == (before, after)
        g = graph6_decode(fixture["graph6"])
        assert naive_em1(g) == before
        assert rep.passed


def test_lemma_corpus_row_counts_sites():
    rep = verify_lemma("lemma-1", trials=25, seed=0, enum_max=5)
    corpus = rep.rows[1]
    assert corpus["kind"] == "corpus"
    assert corpus["violations"] == 0
    assert corpus["sites"] >= corpus["graphs_with_sites"] >= 1
    assert corpus["corpus_size"] > 700  # all connected n<=5 plus the trials
    assert rep.passed


def test_lemma_trials_must_be_nonnegative(monkeypatch):
    with pytest.raises(GraphError) as exc:
        verify_lemma("lemma-1", trials=-5, enum_max=4)
    assert str(exc.value) == "trials must be >= 0, got -5"
    with pytest.raises(GraphError, match="trials"):
        verify_mod.lemma_sweep(trials=-1, enum_max=4)

    def refuse(*args, **kwargs):
        raise AssertionError("a sweep started before trials and seed were checked")

    # trials and seed go into the report as given, so both must be ints
    monkeypatch.setattr(verify_mod, "_class_levels", refuse)
    for kwargs, message in [
        ({"trials": True}, "trials must be an int, got True"),
        ({"trials": 2.5}, "trials must be an int, got 2.5"),
        ({"trials": 0, "seed": "abc"}, "seed must be an int, got 'abc'"),
        ({"trials": 0, "seed": False}, "seed must be an int, got False"),
    ]:
        for run in (verify_mod.lemma_sweep, lambda **kw: verify_lemma("lemma-1", **kw)):
            with pytest.raises(GraphError) as exc:
                run(enum_max=3, **kwargs)
            assert str(exc.value) == message
    monkeypatch.undo()
    rep = verify_lemma("lemma-1", trials=0, enum_max=4)
    assert rep.rows[1]["random_trials"] == 0
    assert rep.rows[1]["corpus_size"] == 44  # connected graphs with n <= 4
    assert rep.passed


def test_lemma_enum_max_is_bounded(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a sweep started before enum_max was checked")

    monkeypatch.setattr(verify_mod, "_class_levels", refuse)
    for enum_max in (-1, 10, True, 4.0):
        with pytest.raises(GraphError) as exc:
            verify_lemma("lemma-1", trials=0, enum_max=enum_max)
        assert str(exc.value) == f"enum_max must be 0..9, got {enum_max!r}"
        with pytest.raises(GraphError):
            verify_mod.lemma_sweep(trials=0, enum_max=enum_max)
    rep = verify_lemma("lemma-1", trials=3, seed=1, enum_max=0)
    assert rep.rows[1]["corpus_size"] == 3 and rep.rows[1]["enumerated_max_n"] == 0


def test_lemma_sweep_matches_individual_runs():
    sweep = verify_mod.lemma_sweep(trials=30, seed=7, enum_max=5)
    assert set(sweep) == set(LEMMA_CLAIMS)
    for claim, rep in sweep.items():
        solo = verify_lemma(claim, trials=30, seed=7, enum_max=5)
        a, b = rep.to_dict(), solo.to_dict()
        a.pop("wall_time_s")
        b.pop("wall_time_s")
        assert a == b


def test_lemma_violation_path_embeds_graphs(monkeypatch):
    # flip the expected direction for operation III: every site now "fails"
    monkeypatch.setitem(verify_mod._DIRECTION, "III", True)
    rep = verify_lemma("lemma-3", trials=0, seed=0, enum_max=4)
    assert not rep.passed
    assert rep.counterexamples
    # violations count labeled graphs' sites; counterexamples name one
    # representative per isomorphism class
    corpus = rep.rows[1]
    assert corpus["violations"] == corpus["sites"] > len(rep.counterexamples)
    cex = rep.counterexamples[0]
    g = graph6_decode(cex["graph6"])
    assert naive_em1(g) == cex["em1_before"]
    assert cex["em1_after"] < cex["em1_before"]  # III really decreases
    # the sweep writes its own em1_before; the list is pinned whole
    blob = json.dumps(list(rep.counterexamples), sort_keys=True).encode()
    assert len(rep.counterexamples) == 8
    assert hashlib.sha256(blob).hexdigest() == (
        "c8ebfdcfa242647f4e5f49d9d45be72e05810ef3c6494a8999f9057209bbf90f"
    )


def test_lemma_sweep_builds_no_graph_per_site(monkeypatch):
    calls = []

    def counted(n, edges):
        calls.append(n)
        return built(n, edges)

    built = rewrite_mod._from_edges
    monkeypatch.setattr(rewrite_mod, "_from_edges", counted)
    sweep = verify_mod.lemma_sweep(trials=30, enum_max=5)
    assert all(rep.passed for rep in sweep.values())
    assert sum(rep.rows[1]["sites"] for rep in sweep.values()) > 0
    assert calls == []


def test_verdict_json_shape():
    rep = verify_theorem("theorem-5", ns=[4])
    doc = json.loads(rep.to_json())
    assert doc["schema"] == 1
    assert doc["claim"] == "theorem-5"
    assert doc["params"]["ns"] == [4]
    assert doc["rows"][0]["n"] == 4


def test_random_connected_graph_is_seeded_and_connected():
    a = [random_connected_graph(random.Random(5)) for _ in range(30)]
    b = [random_connected_graph(random.Random(5)) for _ in range(30)]
    assert a == b
    for g in a:
        assert 4 <= g.n <= 12
        assert is_connected(g)
        assert 0 <= cyclomatic_number(g) <= 3


@pytest.mark.parametrize(
    "n_min, n_max, message, bad_rng",
    [
        (5, 4, "need 1 <= n_min <= n_max, got n_min=5, n_max=4", None),
        (0, 3, "need 1 <= n_min <= n_max, got n_min=0, n_max=3", None),
        (4.0, 6, "n_min must be an int, got 4.0", None),
        (4, True, "n_max must be an int, got True", None),
        # a seed is not a generator: it is refused, not drawn from
        (4, 12, "rng must be a random.Random, got 5", 5),
    ],
)
def test_random_connected_graph_checks_its_bounds_before_drawing(n_min, n_max, message, bad_rng):
    rng = random.Random(5)
    with pytest.raises(GraphError) as exc:
        random_connected_graph(rng if bad_rng is None else bad_rng, n_min, n_max)
    assert str(exc.value) == message
    assert rng.getstate() == random.Random(5).getstate()


def test_prufer_decoding_is_a_bijection_onto_labeled_trees():
    # Cayley: the n^(n-2) sequences give n^(n-2) distinct spanning trees
    assert verify_mod._prufer_edges(1, []) == []
    for n in range(2, 8):
        trees = set()
        for seq in product(range(n), repeat=n - 2):
            edges = verify_mod._prufer_edges(n, seq)
            assert all(0 <= a < b < n for a, b in edges), (n, seq)
            g = make_graph(n, edges)
            assert g.m == n - 1 and is_connected(g), (n, seq)
            trees.add(g.edges)
        assert len(trees) == n ** (n - 2)
