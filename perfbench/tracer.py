"""Span tracing around zagreb's module entry points, from outside the package.

A Tracer replaces module attributes with wrappers while it is installed
and puts the originals back on uninstall.  It patches each name where
its callers look it up: enumeration imported canonical_form by name, so
the wrapper goes into zagreb.enumeration, not only zagreb.canon.

Each wrapped call records a span (name, start, end, parent); spans stay
in memory in flat arrays and are written out by dump().  Self time is a
span's duration minus the durations of its direct children, summed per
span name as the calls close.  Graph queries (neighbors/degree/has_edge)
run millions of times per pass, so they are counted without a span.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter, defaultdict

from zagreb import _kernel, canon, cli, enumeration, families, graph, graph6
from zagreb import indices, rewrite, verify

INDEX_IDS = indices.INDEX_IDS
OPS = rewrite.KINDS
_FROM_EDGES_USERS = (graph, graph6, enumeration, verify, rewrite, families)


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._open: list[int] = []
        self._child: list[float] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.forms: set[str] = set()
        self.kernel_calls: list[tuple] = []
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def wrap(self, fn, name, after=None):
        """Span-recording stand-in for fn; name may be a function of the args."""
        clock = time.perf_counter
        opened, child = self._open, self._child
        fixed = None if callable(name) else self._id(name)

        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else self._id(name(*args))
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(opened[-1] if opened else -1)
            self.end.append(0.0)
            opened.append(idx)
            child.append(0.0)
            t0 = clock()
            self.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                opened.pop()
                inner = child.pop()
                self.end[idx] = t1
                dur = t1 - t0
                label = self.names[nid]
                self.self_s[label] += dur - inner
                self.calls[label] += 1
                if child:
                    child[-1] += dur
            if after is not None:
                after(result, *args)
            return result

        return traced

    def counter(self, fn, key: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_item(self, mapping, key, replacement) -> None:
        self._saved.append((mapping, key, mapping[key]))
        mapping[key] = replacement

    # -- result hooks ------------------------------------------------------

    def _after_scan(self, result, n, m, index, lo=0, hi=None) -> None:
        visited, _, _, min_masks, max_masks = result
        self.counts["kernel.leaves"] += visited
        self.counts["kernel.witness_masks"] += len(min_masks) + len(max_masks)
        self.kernel_calls.append((n, m, lo, hi, visited))

    def _after_visit(self, result, n, m, lo, hi, callback) -> None:
        self.counts["kernel.leaves"] += result
        self.kernel_calls.append((n, m, lo, hi, result))

    def _after_canon(self, result, *args) -> None:
        self.forms.add(result)

    def _after_find(self, result, g, kind) -> None:
        self.counts[f"rewrite.sites.{kind}"] += len(result)
        if result:
            self.counts[f"rewrite.hits.{kind}"] += 1

    def _after_theorem(self, result, *args) -> None:
        self.counts["verify.corpus_graphs"] += sum(r["visited"] for r in result.rows)

    def _after_sweep(self, result, *args) -> None:
        self.counts["verify.corpus_graphs"] += result["lemma-1"].rows[1]["corpus_size"]

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        w = self.wrap
        self._patch(_kernel, "scan_extremal",
                    w(_kernel.scan_extremal, "kernel.scan", self._after_scan))
        self._patch(_kernel, "visit_connected",
                    w(_kernel.visit_connected, "kernel.visit", self._after_visit))
        for mod in (cli, verify):
            self._patch(mod, "extremal_scan",
                        w(mod.extremal_scan, "enumeration.extremal_scan"))
        for mod in (enumeration, verify):
            self._patch(mod, "canonical_form",
                        w(mod.canonical_form, "canon.canonical_form", self._after_canon))
        for mod in (canon, enumeration):
            self._patch(mod, "encode_mask", w(mod.encode_mask, "graph6.encode"))
        for mod in (cli, verify):
            self._patch(mod, "graph6_encode", w(mod.graph6_encode, "graph6.encode"))
        self._patch(cli, "graph6_decode", w(cli.graph6_decode, "graph6.decode"))
        for mod in _FROM_EDGES_USERS:
            self._patch(mod, "_from_edges", w(mod._from_edges, "graph.build"))
        self._patch(graph, "make_graph", w(graph.make_graph, "graph.build"))
        for meth in ("neighbors", "degree", "has_edge"):
            self._patch(graph.Graph, meth,
                        self.counter(getattr(graph.Graph, meth), "graph.queries"))
        for ident in INDEX_IDS:
            self._patch_item(indices.INDEX_FUNCS, ident,
                             w(indices.INDEX_FUNCS[ident], f"indices.{ident}"))
        self._patch(rewrite, "em1", w(rewrite.em1, "indices.em1"))
        self._patch(verify, "find_applicable",
                    w(verify.find_applicable, lambda g, kind: f"rewrite.find.{kind}",
                      self._after_find))
        for mod in (cli, verify):
            self._patch(mod, "apply_rewrite",
                        w(mod.apply_rewrite, lambda g, spec: f"rewrite.apply.{spec.kind}"))
        self._patch(cli, "verify_theorem",
                    w(cli.verify_theorem, "verify.theorem", self._after_theorem))
        self._patch(verify, "lemma_sweep",
                    w(verify.lemma_sweep, "verify.lemma_sweep", self._after_sweep))
        self._patch(cli, "cli_main", w(cli.cli_main, "cli.main"))

    def uninstall(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- reporting ---------------------------------------------------------

    def layer_metrics(self, dfs_s: float, slice_max_share: float) -> dict[str, float]:
        """Per-pass layer metrics; every `_s`/`.s` figure is self time."""
        s, calls, counts = self.self_s, self.calls, self.counts
        busy = s["kernel.scan"] + s["kernel.visit"]
        leaves = counts["kernel.leaves"]
        canon_calls = calls["canon.canonical_form"]
        out = {
            "kernel.leaves": leaves,
            "kernel.busy_s": busy,
            "kernel.leaves_per_s": leaves / busy if busy else 0.0,
            "kernel.witness_masks": counts["kernel.witness_masks"],
            "kernel.dfs_s": dfs_s,
            "kernel.eval_s": busy - dfs_s,
            "kernel.slice_max_share": slice_max_share,
            "enumeration.self_s": s["enumeration.extremal_scan"],
            "canon.calls": canon_calls,
            "canon.busy_s": s["canon.canonical_form"],
            "canon.classes_per_call": len(self.forms) / canon_calls if canon_calls else 0.0,
            "graph6.decode.calls": calls["graph6.decode"],
            "graph6.decode_s": s["graph6.decode"],
            "graph6.encode.calls": calls["graph6.encode"],
            "graph6.encode_s": s["graph6.encode"],
            "graph.builds": calls["graph.build"],
            "graph.build_s": s["graph.build"],
            "graph.queries": counts["graph.queries"],
        }
        for ident in INDEX_IDS:
            out[f"indices.{ident}.calls"] = calls[f"indices.{ident}"]
        out["indices.busy_s"] = sum(s[f"indices.{ident}"] for ident in INDEX_IDS)
        for op in OPS:
            finds = calls[f"rewrite.find.{op}"]
            out[f"rewrite.find.{op}.calls"] = finds
            out[f"rewrite.find.{op}.s"] = s[f"rewrite.find.{op}"]
            out[f"rewrite.find.{op}.hit_ratio"] = (
                counts[f"rewrite.hits.{op}"] / finds if finds else 0.0
            )
            out[f"rewrite.sites.{op}"] = counts[f"rewrite.sites.{op}"]
            out[f"rewrite.apply.{op}.calls"] = calls[f"rewrite.apply.{op}"]
            out[f"rewrite.apply.{op}.s"] = s[f"rewrite.apply.{op}"]
        out["verify.corpus_graphs"] = counts["verify.corpus_graphs"]
        out["verify.self_s"] = s["verify.theorem"] + s["verify.lemma_sweep"]
        out["cli.self_s"] = s["cli.main"]
        return out

    def dump(self, path) -> None:
        """Write every span as columns: name id, start, end, parent index."""
        doc = {
            "workload": self.workload,
            "names": self.names,
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
