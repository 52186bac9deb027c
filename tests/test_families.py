import pytest

from zagreb import (
    CONSTRUCTORS,
    FAMILY_SYMBOLS,
    GraphError,
    cycle_graph,
    cyclomatic_number,
    em1,
    expected_em1,
    path_graph,
    reference,
    s_n_k4,
    s_n_m,
    star_graph,
)


def test_path_star_cycle_shapes():
    p = path_graph(6)
    assert p.m == 5 and sorted(p.degree(v) for v in range(6)) == [1, 1, 2, 2, 2, 2]
    s = star_graph(6)
    assert s.m == 5 and s.degree(0) == 5
    c = cycle_graph(6)
    assert c.m == 6 and all(c.degree(v) == 2 for v in range(6))


def test_s_n_m_shape():
    g = s_n_m(7, 9)  # 3 extra edges from leaf 1
    assert g.n == 7 and g.m == 9
    assert g.degree(0) == 6
    assert g.degree(1) == 4
    assert cyclomatic_number(g) == 3
    # the extra neighbors of 1 sit in a triangle with the hub
    for v in (2, 3, 4):
        assert g.has_edge(1, v) and g.has_edge(0, v)


def test_s_n_m_degenerate_is_plain_star():
    assert s_n_m(6, 5) == star_graph(6)


def test_s_n_k4_shape():
    g = s_n_k4(7)
    assert g.n == 7 and g.m == 9
    assert g.degree(0) == 6
    assert sorted(g.degree(v) for v in range(7)) == [1, 1, 1, 3, 3, 3, 6]
    assert s_n_k4(4).m == 6  # bare K4


@pytest.mark.parametrize(
    "build, fragment",
    [
        (lambda: s_n_m(3, 3), "needs n >= 4"),
        (lambda: s_n_m(6, 4), "needs m >= n - 1"),
        (lambda: s_n_m(5, 9), "only 3 exist"),
        (lambda: s_n_k4(3), "needs n >= 4"),
        (lambda: path_graph(0), "needs n >= 1"),
        (lambda: cycle_graph(2), "needs n >= 3"),
        # orders are plain ints: a float or a bool is refused, not computed with
        (lambda: path_graph(2.5), "n must be an int, got 2.5"),
        (lambda: star_graph(True), "n must be an int, got True"),
        (lambda: cycle_graph("5"), "n must be an int, got '5'"),
        (lambda: s_n_m(5, 5.0), "m must be an int, got 5.0"),
        (lambda: s_n_m(False, 5), "n must be an int, got False"),
        (lambda: s_n_k4(4.0), "n must be an int, got 4.0"),
        (lambda: expected_em1("path", 4.0), "n must be an int, got 4.0"),
        (lambda: expected_em1("star", 2.5), "n must be an int, got 2.5"),
    ],
)
def test_constructor_preconditions(build, fragment):
    with pytest.raises(GraphError) as exc:
        build()
    assert fragment in str(exc.value)


def test_registered_forms_match_direct_evaluation():
    # every closed form re-verified against the definition, n up to 60
    for symbol, builder in CONSTRUCTORS.items():
        lo = reference(symbol).min_n
        for n in range(lo, 61):
            assert expected_em1(symbol, n) == em1(builder(n)), (symbol, n)


def test_reference_registry():
    # each constructor is stated once, in its family's reference row
    assert list(CONSTRUCTORS) == ["path", "star", "cycle", "snm1", "snm2", "snm3", "snk4"]
    assert sorted(CONSTRUCTORS.items()) == [
        (s, reference(s).build) for s in FAMILY_SYMBOLS if reference(s).build is not None
    ]
    assert "tricyclic_floor" in FAMILY_SYMBOLS
    assert "bicyclic_floor" in FAMILY_SYMBOLS
    assert expected_em1("tricyclic_floor", 10) == 108
    assert expected_em1("bicyclic_floor", 10) == 74
    ref = reference("snm3")
    assert ref.min_n == 5
    with pytest.raises(GraphError, match="registered for n >= 5"):
        expected_em1("snm3", 4)
    # an unknown symbol, hashable or not, gets the one unknown-symbol error
    for symbol in ("frobnicate", ["path"]):
        for lookup in (reference, lambda s: expected_em1(s, 5)):
            with pytest.raises(GraphError) as exc:
                lookup(symbol)
            assert str(exc.value).startswith(f"unknown family symbol {symbol!r}, known: (")


def test_tricyclic_candidates_stay_below_the_maximum():
    # the four case-analysis bounds never exceed the winning form
    keys = [k for k in FAMILY_SYMBOLS if "candidate" in k]
    assert len(keys) == 4
    for n in range(5, 61):
        cap = expected_em1("snm3", n)
        assert all(expected_em1(k, n) <= cap for k in keys), n
