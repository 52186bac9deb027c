import hashlib
import random
from dataclasses import FrozenInstanceError
from itertools import combinations, permutations

import pytest

import zagreb.rewrite as rewrite_mod
from zagreb import (
    KINDS,
    RewriteError,
    RewriteSpec,
    apply_rewrite,
    cyclomatic_number,
    em1,
    find_applicable,
    graph6_decode,
    graph6_encode,
    is_connected,
    lemma_sweep,
    make_graph,
    operation_i,
    operation_ii,
    operation_iii,
    operation_iv,
    path_graph,
    random_connected_graph,
    star_graph,
)
from zagreb.enumeration import _class_levels
from zagreb.graph6 import graph_of_mask
from zagreb.rewrite import RewriteResult
from util import all_pairs, bf_connected_all_m, naive_em1, relabeled

TRIANGLE_PENDANT = make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
TWO_TRIANGLES_BRIDGED = make_graph(
    7, [(0, 1), (0, 2), (1, 2), (2, 6), (3, 4), (3, 5), (3, 6), (4, 5)]
)


# --- hand-checked demonstration sites ---------------------------------


def test_operation_i_moves_pendant_cluster():
    # x-v-u with two pendants on u; afterwards everything hangs on v
    g = make_graph(5, [(0, 1), (1, 2), (2, 3), (2, 4)])
    res = operation_i(g, 2, 1)
    assert (res.em1_before, res.em1_after) == (18, 36)
    assert res.graph.degree(1) == 4  # v became the star hub
    assert sorted(res.graph.degree(t) for t in range(5)) == [1, 1, 1, 1, 4]
    assert res.relabel == {t: t for t in range(5)}


def test_operation_i_on_p4_gives_star():
    res = operation_i(path_graph(4), 2, 1)
    assert (res.em1_before, res.em1_after) == (6, 12)
    assert sorted(res.graph.degree(v) for v in range(4)) == [1, 1, 1, 3]


def test_operation_ii_contracts_the_bridge_path():
    res = operation_ii(TWO_TRIANGLES_BRIDGED, (2, 6, 3))
    assert (res.em1_before, res.em1_after) == (62, 202)
    assert res.graph.n == 7 and res.graph.m == 8
    # both old endpoints land on the fused vertex
    assert res.relabel[2] == res.relabel[3]
    fused = res.relabel[2]
    assert res.graph.degree(fused) == 6


def test_operation_iii_threads_subtree_into_chain():
    res = operation_iii(TRIANGLE_PENDANT, 0, (3,), 2)
    assert (res.em1_before, res.em1_after) == (26, 16)
    assert all(res.graph.degree(v) == 2 for v in range(4))  # C4


def test_operation_iii_longer_subtree():
    g = make_graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (3, 4), (3, 5)])
    res = operation_iii(g, 0, (3, 4, 5), 2)
    assert (res.em1_before, res.em1_after) == (46, 24)
    assert all(res.graph.degree(v) == 2 for v in range(6))  # C6


def test_operation_iv_moves_pendants_across():
    res = operation_iv(path_graph(5), 1, 3)
    assert (res.em1_before, res.em1_after) == (10, 18)
    assert sorted(res.graph.degree(v) for v in range(5)) == [1, 1, 1, 2, 3]


# --- precondition rejections -------------------------------------------


@pytest.mark.parametrize(
    "op, fragment",
    [
        (lambda: operation_i(path_graph(4), 0, 1), "no pendant neighbors"),
        (lambda: operation_i(path_graph(5), 2, 3), "neither v nor a pendant"),
        (lambda: operation_i(path_graph(4), 0, 2), "not an edge"),
        (lambda: operation_i(star_graph(4), 0, 1), "needs degree >= 2"),
        (lambda: operation_i(path_graph(4), True, 0), "u=True is not a vertex"),
        (lambda: operation_ii(TWO_TRIANGLES_BRIDGED, (2, 6)), ">= 3 vertices"),
        (lambda: operation_ii(TWO_TRIANGLES_BRIDGED, (2, 6, 6)), "repeats"),
        (lambda: operation_ii(TWO_TRIANGLES_BRIDGED, (0, 2, 6, 3)), "needs exactly 2"),
        (lambda: operation_ii(make_graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)]),
                              (0, 1, 3)), ">= 2 neighbors off the path"),
        (lambda: operation_ii(TWO_TRIANGLES_BRIDGED, (2, 6, 5)), "not an edge"),
        (lambda: operation_iii(TRIANGLE_PENDANT, 0, (), 2), "empty"),
        (lambda: operation_iii(TRIANGLE_PENDANT, 0, (3, 3), 2), "subtree repeats a vertex"),
        (lambda: apply_rewrite(TRIANGLE_PENDANT, RewriteSpec(
            kind="III", root=0, subtree=3, reattach=2)),
         "operation III: subtree=3 is not a sequence of vertices"),
        (lambda: apply_rewrite(TWO_TRIANGLES_BRIDGED, RewriteSpec(kind="II", path=2)),
         "operation II: path=2 is not a sequence of vertices"),
        (lambda: operation_iii(TRIANGLE_PENDANT, 0, (1,), 2), "touches"),
        (lambda: operation_iii(TRIANGLE_PENDANT, 0, (3,), 3), "inside the subtree"),
        (lambda: operation_iii(TRIANGLE_PENDANT, 1, (3,), 2), "touches 0 outside"),
        # a claw plus a separate triangle: the edge count fits, the reach does not
        (lambda: operation_iii(graph6_decode("Fs?GW"), 0, (3, 4, 5, 6), 1),
         "subtree plus root must induce a tree"),
        (lambda: operation_iv(path_graph(5), 1, 2), "must not be adjacent"),
        (lambda: operation_iv(path_graph(4), 1, 3), "no pendants to move"),
        (lambda: operation_iv(path_graph(5), 2, 2), "must differ"),
        (lambda: operation_iv(path_graph(5), 1, 4), "are not neighbors"),
        (lambda: operation_iv(make_graph(5, [(0, 1), (0, 3), (0, 4), (1, 2), (2, 3)]),
                              2, 0), "only swap the two vertices"),
        # an edge plus an isolated vertex
        (lambda: operation_iv(graph6_decode("B_"), 2, 0), "v=0 has no non-pendant neighbor"),
        # g must be a Graph and spec a RewriteSpec, named in the error
        (lambda: apply_rewrite(path_graph(4), "III"), "'III' is not a RewriteSpec"),
        (lambda: apply_rewrite(path_graph(4), ("I", 0, 1)),
         "('I', 0, 1) is not a RewriteSpec"),
        (lambda: apply_rewrite("x", RewriteSpec(kind="IV", u=1, v=3)), "'x' is not a Graph"),
        (lambda: find_applicable(None, "III"), "None is not a Graph"),
        (lambda: find_applicable(path_graph(4).edges, "I"),
         "((0, 1), (1, 2), (2, 3)) is not a Graph"),
        (lambda: operation_i(None, 2, 1), "None is not a Graph"),
        (lambda: operation_ii([(0, 1)], (0, 1, 2)), "[(0, 1)] is not a Graph"),
        (lambda: operation_iii("C{", 0, (3,), 2), "'C{' is not a Graph"),
        (lambda: operation_iv(5, 1, 3), "5 is not a Graph"),
    ],
)
def test_preconditions(op, fragment):
    with pytest.raises(RewriteError) as exc:
        op()
    assert fragment in str(exc.value)


def test_apply_rewrite_requires_fields():
    with pytest.raises(RewriteError, match="needs 'u'"):
        apply_rewrite(path_graph(4), RewriteSpec(kind="I"))
    with pytest.raises(RewriteError, match="unknown rewrite kind"):
        apply_rewrite(path_graph(4), RewriteSpec(kind="V"))


def test_apply_rewrite_rejects_fields_its_kind_does_not_take():
    g = path_graph(5)
    with pytest.raises(RewriteError) as exc:
        apply_rewrite(g, RewriteSpec(kind="IV", u=1, v=3, root=2))
    assert str(exc.value) == "operation IV does not take 'root'"
    with pytest.raises(RewriteError, match="operation II does not take 'u'"):
        apply_rewrite(g, RewriteSpec(kind="II", path=(0, 1, 2), u=0))


def test_find_applicable_rejects_unknown_kind():
    with pytest.raises(RewriteError) as exc:
        find_applicable(path_graph(4), "V")
    assert str(exc.value) == (
        "unknown rewrite kind 'V', choose from ('I', 'II', 'III', 'IV')"
    )


# --- structural conservation -------------------------------------------


def _sample_sites(n_graphs=250, seed=11):
    rng = random.Random(seed)
    corpus = [g for g in bf_connected_all_m(6)]
    for g in rng.sample(corpus, n_graphs):
        for kind in ("I", "II", "III", "IV"):
            for spec in find_applicable(g, kind):
                yield g, spec


def test_rewrites_conserve_order_size_and_connectivity():
    for g, spec in _sample_sites():
        res = apply_rewrite(g, spec)
        assert res.graph.n == g.n, spec
        assert res.graph.m == g.m, spec
        assert is_connected(res.graph), spec
        assert cyclomatic_number(res.graph) == cyclomatic_number(g), spec
        assert res.em1_before == naive_em1(g)
        assert res.em1_after == naive_em1(res.graph)


def test_lazy_results_match_the_slow_path_on_every_class_up_to_7():
    # every site of every kind on one representative of each class
    sites = 0
    for n in range(1, 8):
        for _, classes in _class_levels(n):
            for mask in classes:
                g = graph_of_mask(n, mask)
                for kind in KINDS:
                    for spec in find_applicable(g, kind):
                        res = apply_rewrite(g, spec)
                        make_graph(g.n, res.edges)  # no loop, no duplicate
                        assert res.em1_after == naive_em1(res.graph), (mask, spec)
                        assert res.em1_before == naive_em1(g), (mask, spec)
                        sites += 1
    assert sites == 2939


# sha256 of every RewriteResult field at every site find_applicable lists
# on one graph of each class with n <= 7 and on 2,000 seeded random graphs:
# edges in list order, relabel's items in key order, graph6 of graph,
# em1_before and em1_after
RESULTS_SHA256 = "3f5c02152c2f28b036a88b2e57ee34b661bc6e0840ddea99d36d5db23a7033f3"


def test_result_fields_pinned_at_every_found_site():
    def graphs():
        for n in range(1, 8):
            for _, classes in _class_levels(n):
                for mask in classes:
                    yield graph_of_mask(n, mask)
        rng = random.Random(2401)
        for _ in range(2000):
            yield random_connected_graph(rng)

    digest = hashlib.sha256()
    sites = 0
    for g in graphs():
        head = graph6_encode(g)
        for kind in KINDS:
            for spec in find_applicable(g, kind):
                res = apply_rewrite(g, spec)
                digest.update(
                    f"{head} {spec.params()} {res.edges} {list(res.relabel.items())} "
                    f"{graph6_encode(res.graph)} {res.em1_before} {res.em1_after}\n".encode()
                )
                sites += 1
    assert sites == 24_102
    assert digest.hexdigest() == RESULTS_SHA256


def test_lemma_sweep_reads_only_em1_after(monkeypatch):
    # the sweep scores each site from em1_after alone: the relabeled edge
    # list, the label map and the rewritten graph are never built
    def unread(self):
        raise AssertionError("the lemma sweep read a relabeled result")

    for name in ("edges", "relabel", "graph"):
        monkeypatch.setattr(rewrite_mod.RewriteResult, name, property(unread))
    reports = lemma_sweep(trials=20, enum_max=5)
    assert all(rep.passed for rep in reports.values())
    assert reports["lemma-3"].rows[1]["sites"] > 0


def test_result_builds_its_graph_once_on_first_read(monkeypatch):
    calls = []

    def counted(n, edges):
        calls.append(n)
        return built(n, edges)

    built = rewrite_mod._from_edges
    monkeypatch.setattr(rewrite_mod, "_from_edges", counted)
    res = apply_rewrite(path_graph(5), RewriteSpec(kind="IV", u=1, v=3))
    assert (res.em1_before, res.em1_after) == (10, 18)
    assert calls == []
    first = res.graph
    assert calls == [5]
    assert res.graph is first
    assert calls == [5]


def test_result_is_frozen_and_compares_by_value():
    # results stay immutable to callers, however their __init__ fills them
    spec = RewriteSpec(kind="IV", u=1, v=3)
    res = apply_rewrite(path_graph(5), spec)
    for name in ("source", "pairs", "em1_after", "top", "fused"):
        with pytest.raises(FrozenInstanceError):
            setattr(res, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(res, name)
    assert res.em1_after == 18
    twin = apply_rewrite(path_graph(5), spec)
    res.graph  # a field built on read takes no part in equality
    assert twin == res and twin is not res
    assert res != RewriteResult(res.source, res.pairs, 19, res.top, res.fused)


def test_rewrites_move_em1_the_right_way():
    for g, spec in _sample_sites(seed=12):
        res = apply_rewrite(g, spec)
        if spec.kind == "III":
            assert res.em1_after < res.em1_before, spec
        else:
            assert res.em1_after > res.em1_before, spec


# --- site discovery vs brute force -------------------------------------


def _bf_sites_i(g):
    out = set()
    for u in range(g.n):
        nb = g.neighbors(u)
        for v in nb:
            rest = nb - {v}
            if rest and g.degree(v) >= 2 and all(g.degree(w) == 1 for w in rest):
                out.add((u, v))
    return out


def _bf_sites_ii(g):
    # all simple paths whose interior is exactly the degree-2 vertices
    out = set()

    def extend(path):
        tail = path[-1]
        for w in g.neighbors(tail):
            if w in path:
                continue
            if g.degree(w) == 2:
                extend(path + [w])
            elif len(path) >= 2:
                u, v = path[0], w
                if g.degree(u) < 3 or g.degree(v) < 3 or g.has_edge(u, v):
                    continue
                interior = set(path[1:])
                off_u = g.neighbors(u) - interior - {v}
                off_v = g.neighbors(v) - interior - {u}
                if off_u & off_v:
                    continue
                full = [u, *path[1:], v]
                if full[0] > full[-1]:
                    full.reverse()
                out.add(tuple(full))

    for a in range(g.n):
        if g.degree(a) >= 3:
            extend([a])
    return out


def _bf_sites_iii(g):
    out = set()
    for root in range(g.n):
        others = [x for x in range(g.n) if x != root]
        for size in range(1, len(others) + 1):
            for sub in combinations(others, size):
                s = set(sub)
                if any(g.neighbors(x) - s - {root} for x in s):
                    continue
                inner = sum(len(g.neighbors(x) & s) for x in s) // 2
                ties = len(g.neighbors(root) & s)
                if inner + ties != size:
                    continue
                seen = {root}
                stack = [root]
                while stack:
                    w = stack.pop()
                    for x in g.neighbors(w):
                        if x in s and x not in seen:
                            seen.add(x)
                            stack.append(x)
                if len(seen) != size + 1:
                    continue
                outside = g.neighbors(root) - s
                if len(outside) < 2:
                    continue
                for y in outside:
                    out.add((root, sub, y))
    return out


def _bf_sites_iv(g):
    out = set()
    for u in range(g.n):
        for v in range(g.n):
            if u == v or g.has_edge(u, v):
                continue
            core_u = {w for w in g.neighbors(u) if g.degree(w) > 1}
            core_v = {w for w in g.neighbors(v) if g.degree(w) > 1}
            pend_u = sum(1 for w in g.neighbors(u) if g.degree(w) == 1)
            pend_v = sum(1 for w in g.neighbors(v) if g.degree(w) == 1)
            if not core_v or not core_v <= core_u or not pend_v:
                continue
            if len(core_u) == len(core_v) and pend_u == 0:
                continue
            out.add((u, v))
    return out


def _spec_key(spec):
    if spec.kind == "I":
        return (spec.u, spec.v)
    if spec.kind == "II":
        return spec.path
    if spec.kind == "III":
        return (spec.root, spec.subtree, spec.reattach)
    return (spec.u, spec.v)


@pytest.mark.parametrize(
    "kind, bf",
    [("I", _bf_sites_i), ("II", _bf_sites_ii), ("III", _bf_sites_iii), ("IV", _bf_sites_iv)],
)
def test_find_applicable_matches_brute_force(kind, bf):
    # every labeled graph with n <= 5, connected or not (1,099 in all):
    # find_applicable is public and transform takes any graph6
    for n in range(1, 6):
        pairs = all_pairs(n)
        for chosen in range(1 << len(pairs)):
            g = make_graph(n, [p for i, p in enumerate(pairs) if chosen >> i & 1])
            got = {_spec_key(s) for s in find_applicable(g, kind)}
            assert got == bf(g), (n, g.edges)


def test_find_applicable_matches_brute_force_sampled_n6():
    rng = random.Random(31)
    corpus = bf_connected_all_m(6)
    for g in rng.sample(corpus, 400):
        for kind, bf in (
            ("I", _bf_sites_i),
            ("II", _bf_sites_ii),
            ("III", _bf_sites_iii),
            ("IV", _bf_sites_iv),
        ):
            got = {_spec_key(s) for s in find_applicable(g, kind)}
            assert got == bf(g), (kind, g.edges)


def test_find_applicable_sites_are_deterministically_ordered():
    g = TWO_TRIANGLES_BRIDGED
    for kind in ("I", "II", "III", "IV"):
        twice = [find_applicable(g, kind) for _ in range(2)]
        assert twice[0] == twice[1]


def test_find_applicable_is_relabeling_equivariant():
    # sites of a relabeled graph are the images of the original sites, and
    # each moves em1 by the same amount
    def image(spec, perm):
        if spec.kind == "II":
            path = tuple(perm[x] for x in spec.path)
            return ("II", path if path[0] < path[-1] else path[::-1])
        if spec.kind == "III":
            sub = tuple(sorted(perm[x] for x in spec.subtree))
            return ("III", perm[spec.root], sub, perm[spec.reattach])
        return (spec.kind, perm[spec.u], perm[spec.v])

    def spec_of(key):
        if key[0] == "II":
            return RewriteSpec(kind="II", path=key[1])
        if key[0] == "III":
            return RewriteSpec(kind="III", root=key[1], subtree=key[2], reattach=key[3])
        return RewriteSpec(kind=key[0], u=key[1], v=key[2])

    def delta(g, spec):
        res = apply_rewrite(g, spec)
        return res.em1_after - res.em1_before

    rng = random.Random(41)
    for _ in range(300):
        g = random_connected_graph(rng, n_min=4, n_max=9)
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = relabeled(g, perm)
        for kind in KINDS:
            mapped = {image(s, perm): delta(g, s) for s in find_applicable(g, kind)}
            found = {image(s, range(h.n)): s for s in find_applicable(h, kind)}
            assert set(mapped) == set(found), (kind, g.edges, perm)
            for key, d in mapped.items():
                assert delta(h, spec_of(key)) == d, (key, g.edges, perm)


# --- pinned behaviour of the whole rewrite layer ------------------------

# sha256 of every (graph, spec) outcome below: result graph6, em1 before and
# after, relabel map, or the RewriteError text; 400,427 cases
GRID_SHA256 = "5269c4c4b58bb0cc1ec210cf0c0ef9073b8a0ca0c2255f2da3f6c74ac4000744"


def _grid_specs(g):
    n = g.n
    ends = range(-1, n + 1)
    for kind in ("I", "IV"):
        for u in ends:
            for v in ends:
                yield RewriteSpec(kind=kind, u=u, v=v)
    for path in permutations(range(n), 3):
        yield RewriteSpec(kind="II", path=path)
    for root in range(n):
        for size in (1, 2):
            for sub in combinations(range(n), size):
                for y in range(n):
                    yield RewriteSpec(kind="III", root=root, subtree=sub, reattach=y)
    for kind in KINDS:
        yield from find_applicable(g, kind)


def test_rewrite_grid_pinned():
    # every connected labeled graph with n <= 5: I and IV at every (u, v),
    # out-of-range ends included, II on every ordered vertex triple, III at
    # every (root, 1- or 2-vertex subtree, reattach), plus every found site
    digest = hashlib.sha256()
    cases = 0
    for n in range(1, 6):
        for g in bf_connected_all_m(n):
            head = graph6_encode(g)
            for spec in _grid_specs(g):
                try:
                    res = apply_rewrite(g, spec)
                    out = (
                        f"{graph6_encode(res.graph)} {res.em1_before} {res.em1_after} "
                        f"{sorted(res.relabel.items())}"
                    )
                except RewriteError as exc:
                    out = f"! {exc}"
                digest.update(f"{head} {spec.params()} {out}\n".encode())
                cases += 1
    assert cases == 400_427
    assert digest.hexdigest() == GRID_SHA256
