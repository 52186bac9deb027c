"""Falsifiable checks of the extremal claims and rewrite monotonicity.

Theorems are checked by exhaustive enumeration at each order: observed
extrema are recorded even on pass, bounds are asserted as floors with a
separate attainment flag, and exact extremes are compared against the
registered family formulas together with the witness isomorphism
classes.  Lemmas are checked by sweeping every applicable rewrite site
over a corpus (all connected graphs up to order 7, plus seeded random
connected graphs up to order 12) and asserting strict monotonicity;
which graphs can hold a site is for rewrite's finders to say.  Every
site is applied through apply_rewrite with its full precondition
checks, but the sweep reads only the result's em1_after, so it builds
no rewritten Graph; em1 of each corpus graph is taken once, at its
first site, and compared with every site's em1_after.  Every failing
verdict embeds a decodable counterexample.  Each lemma is one row of
_LEMMAS: its direction and a hand-checked site of its operation, which
every report of the lemma shows as its fixture row.

The enumerated part of the lemma corpus is swept one isomorphism class
at a time, each class weighted by the n!/|Aut| labeled graphs it
stands for.  Sites are found on a class representative; since
find_applicable is relabeling-equivariant, every labeled member has as
many sites with the same em1 changes.  corpus_size, sites,
graphs_with_sites and violations are therefore labeled counts, while a
counterexample names the class representative.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass

from .canon import canonical_form
from .enumeration import LEMMA_MAX_N, EnumSpec, _class_levels, extremal_scan
from .families import CONSTRUCTORS, expected_em1, reference
from .graph import Graph, GraphError, _from_edges, _ints
from .graph6 import edge_table, graph6_encode, graph_of_mask
from .indices import em1
from .rewrite import RewriteSpec, apply_rewrite, find_applicable

# claim -> cyclomatic number, the report's note, exact extremes as witness
# symbols (the first one registered at n gives the value) and/or a floor
# symbol whose attainment is reported rather than asserted
_THEOREMS = {
    "theorem-1": {
        "c": 0, "min": ("path",), "max": ("star",),
        "note": "trees: the path minimizes em1 and the star maximizes it",
    },
    "theorem-2": {
        "c": 1, "min": ("cycle",), "max": ("snm1",),
        "note": "unicyclic: the cycle minimizes em1, s_n_m(n, n) maximizes it",
    },
    "theorem-3": {
        "c": 2, "floor": "bicyclic_floor", "max": ("snm2",),
        "note": "bicyclic: em1 floor 4n+34; maximum n^3-5n^2+16n+4 at s_n_m(n, n+1)",
    },
    "theorem-4": {
        "c": 3, "floor": "tricyclic_floor",
        "note": "tricyclic: em1 floor 4n+68; attainment reported per order",
    },
    "theorem-5": {
        "c": 3, "max": ("snm3", "snk4"),
        "note": "tricyclic: maximum n^3-5n^2+20n+32 at s_n_m(n, n+2) and s_n_k4(n)",
    },
}
THEOREM_CLAIMS = tuple(_THEOREMS)

# lemma -> (em1 must strictly increase?, one hand-checked demonstration site
# of its operation: n, edges, RewriteSpec); the operation is the site's kind
_LEMMAS = {
    "lemma-1": (True, 5, [(0, 1), (1, 2), (2, 3), (2, 4)], RewriteSpec("I", u=2, v=1)),
    "lemma-2": (
        True, 7, [(0, 1), (0, 2), (1, 2), (2, 6), (3, 4), (3, 5), (3, 6), (4, 5)],
        RewriteSpec("II", path=(2, 6, 3)),
    ),
    "lemma-3": (
        False, 4, [(0, 1), (0, 2), (0, 3), (1, 2)],
        RewriteSpec("III", root=0, subtree=(3,), reattach=2),
    ),
    "lemma-4": (True, 5, [(0, 1), (1, 2), (2, 3), (3, 4)], RewriteSpec("IV", u=1, v=3)),
}
LEMMA_CLAIMS = tuple(_LEMMAS)
_DIRECTION = {site.kind: increases for increases, _, _, site in _LEMMAS.values()}

# the largest order of a random lemma corpus graph
RANDOM_MAX_N = 12


@dataclass(frozen=True)
class VerdictReport:
    """Machine-readable outcome of one claim check."""

    claim: str
    passed: bool
    params: dict
    rows: tuple[dict, ...]
    counterexamples: tuple[dict, ...]
    notes: tuple[str, ...]
    wall_time_s: float

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "claim": self.claim,
            "passed": self.passed,
            "params": self.params,
            "rows": list(self.rows),
            "counterexamples": list(self.counterexamples),
            "notes": list(self.notes),
            "wall_time_s": self.wall_time_s,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def _expected(symbols, n: int) -> tuple[int, set[str]]:
    # the value of the first symbol registered at n, the classes of all of them;
    # a test holds canon's CANON_LIMIT at or above every order EnumSpec admits
    covering = [s for s in symbols if reference(s).min_n <= n]
    if not covering:
        raise GraphError(f"no registered formula among {symbols} covers n={n}")
    forms = {canonical_form(CONSTRUCTORS[s](n)) for s in covering}
    return expected_em1(covering[0], n), forms


def verify_theorem(claim, ns=None, allow_large=False) -> VerdictReport:
    """Exhaustively check one extremal claim over the given orders.

    ns is a range or an iterable of plain ints, and allow_large a bool;
    every order is checked before any scan starts.
    """
    if claim not in THEOREM_CLAIMS:
        raise GraphError(f"unknown theorem claim {claim!r}, choose from {THEOREM_CLAIMS}")
    cfg = _THEOREMS[claim]
    ns = range(4, 9) if ns is None else ns
    # ascending orders; a range is checked from its ends, never walked
    if isinstance(ns, range):
        orders = ns if ns.step > 0 else ns[::-1]
    else:
        try:
            it = iter(ns)
        except TypeError:
            raise GraphError(f"ns must be an iterable of orders, got {ns!r}") from None
        ns = list(it)
        for n in ns:
            if type(n) is not int:
                raise GraphError(f"theorem orders must be ints, got {n!r}")
        orders = sorted(set(ns))
    EnumSpec.check_cap(orders, cfg["c"])
    if not orders or orders[0] < 4:
        got = f"n={orders[0]}" if orders else "[]"
        raise GraphError(f"theorem checks run at n >= 4, got {got}")
    symbols = [*cfg.get("min", ()), *cfg.get("max", ())]
    if "floor" in cfg:
        symbols.append(cfg["floor"])
    sources = {s: reference(s).provenance for s in symbols}
    # every order is validated before the first scan starts
    specs = [EnumSpec(n=n, c=cfg["c"], allow_large=allow_large) for n in orders]
    t0 = time.perf_counter()
    rows = []
    cex = []
    for n, spec in zip(orders, specs):
        rep = extremal_scan(spec, "em1")
        row = {
            "n": n,
            "m": rep.m,
            "visited": rep.visited,
            "min": rep.min_value,
            "max": rep.max_value,
            "min_witnesses": list(rep.min_graphs),
            "max_witnesses": list(rep.max_graphs),
        }
        for side in ("min", "max"):
            if side not in cfg:
                continue
            observed = rep.min_value if side == "min" else rep.max_value
            observed_forms = set(rep.min_graphs if side == "min" else rep.max_graphs)
            expected, forms = _expected(cfg[side], n)
            row[f"expected_{side}"] = expected
            if observed != expected:
                cex.append({
                    "n": n,
                    "check": f"{side} value",
                    "expected": expected,
                    "observed": observed,
                    "graphs": sorted(observed_forms),
                })
            if observed_forms != forms:
                cex.append({
                    "n": n,
                    "check": f"{side} witnesses",
                    "expected": sorted(forms),
                    "observed": sorted(observed_forms),
                    "unexpected": sorted(observed_forms - forms),
                    "missing": sorted(forms - observed_forms),
                })
        if "floor" in cfg:
            bound = expected_em1(cfg["floor"], n)
            row["floor"] = bound
            row["attained"] = rep.min_value == bound
            if rep.min_value < bound:
                cex.append({
                    "n": n,
                    "check": "min floor",
                    "bound": bound,
                    "observed": rep.min_value,
                    "graphs": list(rep.min_graphs),
                })
        rows.append(row)
    return VerdictReport(
        claim=claim,
        passed=not cex,
        params={"ns": list(orders), "c": cfg["c"], "index": "em1", "references": sources},
        rows=tuple(rows),
        counterexamples=tuple(cex),
        notes=(cfg["note"],),
        wall_time_s=time.perf_counter() - t0,
    )


def _prufer_edges(n: int, seq) -> list[tuple[int, int]]:
    # classic decode; the sequence determines the labeled tree uniquely
    if n == 1:
        return []
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    edges = []
    for x in seq:
        leaf = deg.index(1)  # the lowest leaf; a used one reads 0
        deg[leaf] = 0
        edges.append((min(leaf, x), max(leaf, x)))
        deg[x] -= 1
    a = deg.index(1)
    edges.append((a, deg.index(1, a + 1)))
    return edges


def random_connected_graph(
    rng: random.Random, n_min: int = 4, n_max: int = RANDOM_MAX_N
) -> Graph:
    """Random connected graph: a uniform labeled tree plus 0..3 extra edges."""
    # checked before any draw, so every seeded graph stays the same
    _ints(n_min=n_min, n_max=n_max)
    if not 1 <= n_min <= n_max:
        raise GraphError(f"need 1 <= n_min <= n_max, got n_min={n_min}, n_max={n_max}")
    n = rng.randint(n_min, n_max)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    edges = _prufer_edges(n, seq)
    c = rng.randint(0, 3)
    if c:
        have = set(edges)
        spare = [e for e in edge_table(n) if e not in have]
        edges += rng.sample(spare, min(c, len(spare)))
    return _from_edges(n, edges)


def _lemma_pass(kinds, trials, seed, enum_max):
    _ints(trials=trials, seed=seed)
    if trials < 0:
        raise GraphError(f"trials must be >= 0, got {trials}")
    if type(enum_max) is not int or not 0 <= enum_max <= LEMMA_MAX_N:
        raise GraphError(f"enum_max must be 0..{LEMMA_MAX_N}, got {enum_max!r}")
    stats = {k: {"sites": 0, "graphs_with_sites": 0, "violations": 0} for k in kinds}
    bad = {k: [] for k in kinds}
    corpus_size = 0

    def check(g: Graph, weight: int) -> None:
        # g stands for `weight` labeled graphs
        nonlocal corpus_size
        corpus_size += weight
        before = None  # em1(g), taken once at g's first site
        for kind in kinds:
            sites = find_applicable(g, kind)
            if not sites:
                continue
            stats[kind]["graphs_with_sites"] += weight
            stats[kind]["sites"] += weight * len(sites)
            increases = _DIRECTION[kind]
            if before is None:
                before = em1(g)
            for site in sites:
                after = apply_rewrite(g, site).em1_after
                delta = after - before
                if (delta > 0) != increases or delta == 0:
                    stats[kind]["violations"] += weight
                    bad[kind].append({
                        "graph6": graph6_encode(g),
                        "site": site.params(),
                        "em1_before": before,
                        "em1_after": after,
                    })

    for n in range(1, enum_max + 1):
        order = math.factorial(n)
        for _, classes in _class_levels(n):
            for mask, aut in classes.items():
                check(graph_of_mask(n, mask), order // aut)
    rng = random.Random(seed)
    for _ in range(trials):
        check(random_connected_graph(rng), 1)
    return corpus_size, stats, bad


def _lemma_report(claim, corpus_size, stats, bad, trials, seed, enum_max, wall):
    increases, n, edges, fspec = _LEMMAS[claim]
    kind = fspec.kind
    fg = _from_edges(n, edges)
    fres = apply_rewrite(fg, fspec)
    sites = stats[kind]["sites"]
    direction = "increase" if increases else "decrease"
    rows = (
        {
            "kind": "fixture",
            "graph6": graph6_encode(fg),
            "site": fspec.params(),
            "em1_before": fres.em1_before,
            "em1_after": fres.em1_after,
        },
        {
            "kind": "corpus",
            "corpus_size": corpus_size,
            "enumerated_max_n": enum_max,
            "random_trials": trials,
            "seed": seed,
            "random_max_n": RANDOM_MAX_N,
            "sites": sites,
            "graphs_with_sites": stats[kind]["graphs_with_sites"],
            "violations": stats[kind]["violations"],
        },
    )
    return VerdictReport(
        claim=claim,
        passed=not bad[kind] and sites >= 1,
        params={
            "trials": trials, "seed": seed, "n_max": RANDOM_MAX_N, "operation": kind
        },
        rows=rows,
        counterexamples=tuple(bad[kind]),
        notes=(f"operation {kind} must strictly {direction} em1 at every site",),
        wall_time_s=wall,
    )


def _sweep(claims, trials, seed, enum_max) -> dict[str, VerdictReport]:
    t0 = time.perf_counter()
    kinds = tuple(_LEMMAS[c][-1].kind for c in claims)
    corpus_size, stats, bad = _lemma_pass(kinds, trials, seed, enum_max)
    wall = time.perf_counter() - t0
    return {
        claim: _lemma_report(claim, corpus_size, stats, bad, trials, seed, enum_max, wall)
        for claim in claims
    }


def verify_lemma(claim, trials=1000, seed=0, enum_max=7) -> VerdictReport:
    """Sweep one operation over the corpus and check strict monotonicity."""
    if claim not in LEMMA_CLAIMS:
        raise GraphError(f"unknown lemma claim {claim!r}, choose from {LEMMA_CLAIMS}")
    return _sweep((claim,), trials, seed, enum_max)[claim]


def lemma_sweep(trials=1000, seed=0, enum_max=7) -> dict[str, VerdictReport]:
    """All four lemma checks in one corpus pass; same verdicts as one-by-one."""
    return _sweep(LEMMA_CLAIMS, trials, seed, enum_max)
