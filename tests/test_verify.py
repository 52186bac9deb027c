import json
import random

import pytest

import zagreb.verify as verify_mod
from zagreb import _kernel, enumeration
from zagreb import (
    GraphError,
    LEMMA_CLAIMS,
    THEOREM_CLAIMS,
    canonical_form,
    cycle_graph,
    cyclomatic_number,
    graph6_decode,
    is_connected,
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
    with pytest.raises(GraphError, match="unknown theorem claim"):
        verify_theorem("theorem-9")
    with pytest.raises(GraphError, match="unknown lemma claim"):
        verify_lemma("lemma-9")
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
    a = verify_theorem("theorem-2", ns=[4, 5], workers=1).to_dict()
    b = verify_theorem("theorem-2", ns=[4, 5], workers=3).to_dict()
    a.pop("wall_time_s")
    b.pop("wall_time_s")
    assert a == b


def test_theorem_failure_embeds_counterexamples(monkeypatch):
    # doctor the claims table: trees do not peak at the cycle's value
    bogus = dict(verify_mod._THEOREMS)
    bogus["theorem-1"] = {"c": 0, "min": ("path", ("path",)), "max": ("cycle", ("cycle",))}
    monkeypatch.setattr(verify_mod, "_THEOREMS", bogus)
    rep = verify_theorem("theorem-1", ns=[5])
    assert not rep.passed
    assert rep.counterexamples
    for cex in rep.counterexamples:
        if cex["check"] == "max value":
            g = graph6_decode(cex["graphs"][0])
            assert naive_em1(g) == cex["observed"] != cex["expected"]


def test_theorem_orders_validated_before_any_scan(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a scan ran before every order was validated")

    monkeypatch.setattr(_kernel, "scan_extremal", refuse)
    monkeypatch.setattr(enumeration, "connected_classes", refuse)
    with pytest.raises(GraphError, match="capped at n=9, got n=10"):
        verify_theorem("theorem-2", ns=[4, 5, 6, 7, 10])
    with pytest.raises(GraphError, match="allow_large"):
        verify_theorem("theorem-4", ns=range(4, 10))


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


def test_lemma_trials_must_be_nonnegative():
    with pytest.raises(GraphError, match="trials"):
        verify_lemma("lemma-1", trials=-5, enum_max=4)
    with pytest.raises(GraphError, match="trials"):
        verify_mod.lemma_sweep(trials=-1, enum_max=4)
    rep = verify_lemma("lemma-1", trials=0, enum_max=4)
    assert rep.rows[1]["random_trials"] == 0
    assert rep.rows[1]["corpus_size"] == 44  # connected graphs with n <= 4
    assert rep.passed


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
