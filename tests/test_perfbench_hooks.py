"""The benchmark tracer's hooks still fit the package.

perfbench/tracer.py patches module attributes by name and relies on the
package looking each one up at call time.  This runs it against a small
theorem scan and lemma sweep, so a renamed or early-bound hook fails
here rather than only in a traced benchmark run.
"""

import importlib.util
import json
import sys
from pathlib import Path

import zagreb
import zagreb.cli as cli_mod
import zagreb.verify as verify_mod
from zagreb import graph, indices

ROOT = Path(__file__).resolve().parent.parent


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    # everything a tracer may patch: module globals, Graph's methods, the
    # index table
    spaces = {
        name: vars(mod)
        for name, mod in sys.modules.items()
        if name == "zagreb" or name.startswith("zagreb.")
    }
    spaces["Graph"] = vars(graph.Graph)
    spaces["INDEX_FUNCS"] = indices.INDEX_FUNCS
    return {name: dict(space) for name, space in spaces.items()}


def _changed(before, after) -> list[str]:
    return [
        f"{space}.{key}"
        for space, names in before.items()
        for key in names.keys() | after[space].keys()
        if names.get(key) is not after[space].get(key)
    ]


def test_tracer_hooks_fit_the_package(tmp_path):
    tracer_mod = _load_tracer()
    before = _namespaces()
    tracer = tracer_mod.Tracer("hooks")
    tracer.install()
    try:
        assert _changed(before, _namespaces()), "install patched nothing"
        out = tmp_path / "verdict.json"
        code = cli_mod.cli_main(["verify", "theorem-5", "--n", "4..5", "--out", str(out)])
        assert code == 0 and json.loads(out.read_text())["passed"]
        reports = verify_mod.lemma_sweep(trials=5, enum_max=4)
        assert all(rep.passed for rep in reports.values())
    finally:
        tracer.uninstall()
    assert _changed(before, _namespaces()) == []

    metrics = tracer.layer_metrics(0.0, 0.0)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(metrics) | {"trace.overhead_s"} == {m["name"] for m in declared["per_layer"]}
    # every hook these runs pass through saw its calls
    reached = [
        "canon.calls",
        "graph.builds",
        "graph6.encode.calls",
        "indices.em1.calls",
        "verify.corpus_graphs",
        "cli.self_s",
        "enumeration.self_s",
    ]
    for kind in zagreb.KINDS:
        reached += [f"rewrite.find.{kind}.calls", f"rewrite.apply.{kind}.calls"]
    assert [name for name in reached if not metrics[name]] == []
