import pytest

import zagreb
import zagreb.graph as graph_mod
from zagreb import (
    Graph,
    GraphError,
    brace,
    cyclomatic_number,
    degree,
    edge_degree,
    fuse,
    is_connected,
    line_graph,
    make_graph,
    pendant_vertices,
    read_edge_list,
    write_edge_list,
)
from util import bf_connected_all_m

P4 = make_graph(4, [(0, 1), (1, 2), (2, 3)])
K4 = make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
TRIANGLE_TAIL = make_graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])


def test_make_graph_normalizes_and_orders():
    g = make_graph(3, [(2, 1), (1, 0)])
    assert g.edges == ((0, 1), (1, 2))
    assert g.n == 3 and g.m == 2
    assert g.neighbors(1) == frozenset({0, 2})


@pytest.mark.parametrize(
    "n, edges, fragment",
    [
        (0, [], "at least one vertex"),
        (-2, [], "at least one vertex"),
        (3, [(0, 3)], "outside 0..2"),
        (3, [(-1, 1)], "outside 0..2"),
        (3, [(1, 1)], "loop"),
        (3, [(0, 1), (1, 0)], "duplicate edge (0, 1)"),
        (3, [("a", 1)], "non-integer endpoint"),
        (True, [], "need at least one vertex, got n=True"),
        (3, [(0, 1, 2)], "edge (0, 1, 2) is not a pair of vertices"),
        (3, [(0,)], "edge (0,) is not a pair of vertices"),
        (3, [5], "edge 5 is not a pair of vertices"),
        (3, 5, "edges must be an iterable of pairs, got 5"),
    ],
)
def test_make_graph_rejects(n, edges, fragment):
    with pytest.raises(GraphError) as exc:
        make_graph(n, edges)
    assert fragment in str(exc.value)


def test_public_constructor_matches_make_graph():
    g = Graph(3, [(1, 0)])
    assert g == make_graph(3, [(0, 1)])
    assert hash(g) == hash(make_graph(3, [(0, 1)]))
    assert repr(g) == "Graph(n=3, m=1)"
    assert (g == "x") is False
    with pytest.raises(GraphError, match=r"edge \(0, 1, 2\) is not a pair of vertices"):
        Graph(3, [(0, 1, 2)])


def test_every_build_goes_through_from_edges(monkeypatch):
    # make_graph validates and Graph(...) is make_graph; neither lays out a
    # Graph of its own
    calls = []

    def counted(n, edges):
        calls.append(n)
        return built(n, edges)

    built = graph_mod._from_edges
    monkeypatch.setattr(graph_mod, "_from_edges", counted)
    assert make_graph(3, [(2, 1), (1, 0)]).edges == ((0, 1), (1, 2))
    assert calls == [3]
    assert Graph(4, [(3, 0)]).edges == ((0, 3),)
    assert calls == [3, 4]


def test_graph_is_immutable():
    with pytest.raises(AttributeError):
        P4.n = 7


def test_degree_and_edge_degree():
    assert [degree(P4, v) for v in range(4)] == [1, 2, 2, 1]
    assert edge_degree(P4, 0, 1) == 1
    assert edge_degree(P4, 2, 1) == 2
    assert edge_degree(K4, 0, 3) == 4
    with pytest.raises(GraphError, match="not an edge"):
        edge_degree(P4, 0, 2)
    with pytest.raises(GraphError, match="vertex True out of range"):
        P4.degree(True)
    with pytest.raises(GraphError, match="out of range"):
        degree(P4, 9)


def test_connectivity():
    assert is_connected(P4)
    assert is_connected(make_graph(1, []))
    assert not is_connected(make_graph(4, [(0, 1), (2, 3)]))
    assert not is_connected(make_graph(2, []))


def test_cyclomatic_number():
    assert cyclomatic_number(P4) == 0
    assert cyclomatic_number(K4) == 3
    assert cyclomatic_number(TRIANGLE_TAIL) == 1
    with pytest.raises(GraphError, match="connected"):
        cyclomatic_number(make_graph(4, [(0, 1), (2, 3)]))


def test_pendant_vertices():
    assert pendant_vertices(P4) == (0, 3)
    assert pendant_vertices(K4) == ()
    assert pendant_vertices(make_graph(1, [])) == ()


def test_brace_strips_pendants_iteratively():
    # tail 4-3-2 dissolves in two rounds, not one
    core = brace(TRIANGLE_TAIL)
    assert core.n == 3 and core.edges == ((0, 1), (0, 2), (1, 2))
    assert brace(K4) == K4


@pytest.mark.parametrize(
    "g",
    [
        P4,
        make_graph(1, []),
        make_graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)]),
    ],
)
def test_brace_requires_cycles_everywhere(g):
    with pytest.raises(GraphError) as exc:
        brace(g)
    assert "no cycle" in str(exc.value)


def test_fuse_merges_neighborhoods():
    # fusing the P4 endpoints yields the triangle
    g = fuse(P4, 0, 3)
    assert g.n == 3
    assert g.edges == ((0, 1), (0, 2), (1, 2))
    with pytest.raises(GraphError, match="adjacent"):
        fuse(P4, 0, 1)
    with pytest.raises(GraphError, match="itself"):
        fuse(P4, 2, 2)


def test_fuse_drops_shared_neighbor_duplicates():
    # star: fusing two leaves keeps a single edge to the hub
    g = fuse(make_graph(4, [(0, 1), (0, 2), (0, 3)]), 1, 2)
    assert g.n == 3 and g.m == 2


def _fuse_reference(g, u, v):
    rest = [t for t in range(g.n) if t not in (u, v)]
    label = {t: i for i, t in enumerate(rest)}
    label[u] = label[v] = len(rest)
    edges = {tuple(sorted((label[a], label[b]))) for a, b in g.edges}
    return make_graph(len(rest) + 1, edges)


def _brace_reference(g):
    adj = {t: set() for t in range(g.n)}
    for a, b in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    while True:
        leaves = [t for t in adj if len(adj[t]) == 1]
        if not leaves:
            break
        for t in leaves:
            for x in adj.pop(t):
                if x in adj:
                    adj[x].discard(t)
    label = {t: i for i, t in enumerate(sorted(adj))}
    edges = [(label[a], label[b]) for a, b in g.edges if a in adj and b in adj]
    return make_graph(len(label), edges)


def _same(got, want):
    # Graph.__eq__ compares n and edges only; check the adjacency too
    return got == want and got._adj == want._adj


def test_fuse_and_brace_match_references_exhaustively():
    # every connected labeled graph with n <= 5: fuse at every non-adjacent
    # ordered pair, brace wherever there is a cycle
    fused = braced = 0
    for n in range(1, 6):
        for g in bf_connected_all_m(n):
            for u in range(n):
                for v in range(n):
                    if u != v and v not in g.neighbors(u):
                        want = _fuse_reference(g, u, v)
                        assert _same(fuse(g, u, v), want), (g.edges, u, v)
                        fused += 1
            if g.m >= n:
                assert _same(brace(g), _brace_reference(g)), g.edges
                braced += 1
    assert (fused, braced) == (6454, 626)


def test_fuse_of_two_isolated_vertices_is_one_vertex():
    assert fuse(make_graph(2, []), 0, 1) == make_graph(1, [])


def test_line_graph_small_cases():
    assert line_graph(P4).edges == ((0, 1), (1, 2))  # L(P4) = P3
    tri = make_graph(3, [(0, 1), (0, 2), (1, 2)])
    assert line_graph(tri).m == 3  # L(K3) = K3
    star = make_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert line_graph(star).m == 3  # L(S4) = K3
    with pytest.raises(GraphError, match="edgeless"):
        line_graph(make_graph(2, []))


def test_edge_list_round_trip():
    text = write_edge_list(TRIANGLE_TAIL)
    assert text.splitlines()[0] == "5 5"
    assert read_edge_list(text) == TRIANGLE_TAIL
    assert read_edge_list("# comment\n2 1\n\n0 1\n") == make_graph(2, [(0, 1)])


def test_bool_endpoint_never_reaches_the_edge_list():
    # True == 1, but a graph holding it would write "True 2", which
    # read_edge_list rejects; make_graph refuses it instead
    with pytest.raises(GraphError, match=r"non-integer endpoint in edge \(True, 2\)"):
        write_edge_list(make_graph(3, [(True, 2), (0, 1)]))


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "empty"),
        ("2\n", "header"),
        ("3 2\n0 1\n", "promises 2 edges, found 1"),
        ("2 1\n0 x\n", "malformed"),
        ("2 1\n0 1 junk\n", "edge line must be 'u v', got ['0', '1', 'junk']"),
        ("2 1\n0\n", "edge line must be 'u v', got ['0']"),
    ],
)
def test_edge_list_rejects(text, fragment):
    with pytest.raises(GraphError) as exc:
        read_edge_list(text)
    assert fragment in str(exc.value)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: zagreb.m1(5), "5 is not a Graph"),
        (lambda: zagreb.m2(5), "5 is not a Graph"),
        (lambda: zagreb.em1(5), "5 is not a Graph"),
        (lambda: zagreb.em2(5), "5 is not a Graph"),
        (lambda: zagreb.compute_index(5, "em1"), "5 is not a Graph"),
        (lambda: zagreb.canonical_form(5), "5 is not a Graph"),
        (lambda: zagreb.graph6_encode(5), "5 is not a Graph"),
        (lambda: degree(5, 0), "5 is not a Graph"),
        (lambda: edge_degree(5, 0, 1), "5 is not a Graph"),
        (lambda: is_connected(5), "5 is not a Graph"),
        (lambda: cyclomatic_number(5), "5 is not a Graph"),
        (lambda: pendant_vertices(5), "5 is not a Graph"),
        (lambda: brace(5), "5 is not a Graph"),
        (lambda: fuse(5, 0, 1), "5 is not a Graph"),
        (lambda: line_graph(5), "5 is not a Graph"),
        (lambda: write_edge_list(5), "5 is not a Graph"),
        (lambda: line_graph(P4.edges), "((0, 1), (1, 2), (2, 3)) is not a Graph"),
        (lambda: zagreb.extremal_scan(5, "em1"), "5 is not an EnumSpec"),
        (lambda: zagreb.brace_census(5), "5 is not an EnumSpec"),
        (lambda: zagreb.brace_census((5, 1)), "(5, 1) is not an EnumSpec"),
        (lambda: read_edge_list(5), "edge-list text must be a str, got 5"),
        (lambda: read_edge_list(b"2 1\n0 1\n"),
         "edge-list text must be a str, got b'2 1\\n0 1\\n'"),
    ],
)
def test_exported_functions_refuse_the_wrong_type(call, message):
    # a library caller gets a GraphError naming what it passed, not a bare
    # AttributeError from deep inside the function
    with pytest.raises(GraphError) as exc:
        call()
    assert type(exc.value) is GraphError and str(exc.value) == message
