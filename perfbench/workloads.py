"""The benchmark's workloads: what each runs, how its outputs are checked.

A workload is a list of units.  A unit is one call into zagreb as a user
makes it (an in-process `zagreb ...` command, or one library call) plus
a check of that call's output against pinned values.  measure() runs the
units round robin until its time is up; a workload's pass time is the
sum of its units' fastest times.

Workloads and why each is here:

- scan: `verify theorem-1..5 --n 4..6` and `enumerate --n 6
  --cyclomatic 3 --index em2`.  Exhaustive verification: the kernel and
  the canonical forms of the witness sets, which at n <= 6 take more
  time than the kernel; em2 is the kernel's costliest inlined
  evaluator.  The seed shuffles the unit order.  n stops at 6 because a
  single n=7 scan is a 0.4-4 s call that cannot be split.
- lemma: lemma_sweep(trials, seed, enum_max=4), in parts with seeds
  drawn from the run's seed.  Rewrite sites and graph construction,
  nearly no kernel.  The library call, because the CLI fixes enum_max=7
  (minutes per pass); trials > 0 because the enumerated part alone has
  no operation-II site.  enum_max=6 would add one 4 s block that cannot
  be split, so each part is a short call instead.
- compute: `compute FILE --index all` on a seeded graph6 corpus, one
  call per part file.  The read path: graph6 decoding, one graph build
  per line, Graph queries and all four indices; no kernel, canon or
  rewrite.

Every unit takes about 0.1 s and runs dozens of times in a run, because
the pass time is the sum of each unit's fastest sample.  The shared host
this was tuned on switches every few seconds between a fast state and
one up to 2x slower, in a mix that changes over minutes; short samples
still catch the fast state when most of a run is slow, so a unit's
fastest sample moves far less from run to run than its median does.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from zagreb import cli, verify
from zagreb.graph import line_graph, make_graph
from zagreb.graph6 import graph6_decode, graph6_encode
from zagreb.indices import INDEX_IDS, m1

WORKLOADS = ("scan", "lemma", "compute")

# connected labeled graphs on 1..k vertices (OEIS A001187 partial sums):
# the enumerated part of the lemma corpus at enum_max=k
LEMMA_ENUMERATED = {4: 44, 5: 772, 6: 27476}


@dataclass(frozen=True)
class Size:
    scan_n: str
    scan_enum_n: int
    lemma_parts: int
    lemma_trials: int
    lemma_enum_max: int
    compute_parts: int
    compute_lines: int
    compute_n_max: int
    agreement_cases: tuple[tuple[int, int], ...]


SIZES = {
    "full": Size("4..6", 6, 12, 100, 4, 16, 8000, 40, ((6, 5), (6, 6), (6, 7), (6, 8))),
    "tiny": Size("4..5", 5, 2, 40, 5, 2, 200, 12, ((5, 4), (5, 5), (5, 6), (5, 7))),
}

# sha256 of each output with wall_time_s removed (scan, lemma) or of the
# CSV text (compute).  Lemma and compute pins hold at seed 0 only; other
# seeds are checked by invariants alone.
PINS = {
    "full verify theorem-2 --n 4..6":
        "24b8772b50fbd3f176d435bd37a81c27db87d2f7ee77792b9e1283475920c1c3",
    "full verify theorem-4 --n 4..6":
        "4c95184b1401dbf190a60ff45fcdbb680e9cdd6e173e71632410f8605dd89c5e",
    "full verify theorem-5 --n 4..6":
        "500ecbe907ba33cfb5cb84169cce35e42f5c3bac22a0e536f1a406ed7eae4a65",
    "full verify theorem-3 --n 4..6":
        "8ea859817a68b31f61f2dfba3f8c0c5fe9a72e1d98aad08c7bef66c8284945ba",
    "full verify theorem-1 --n 4..6":
        "3831ae74e543c5ff6d17fb0952a975d7a4b3b0850565551678f95a674b71c0e9",
    "full enumerate --n 6 --cyclomatic 3 --index em2":
        "5f1007b812dbd27ca33d9044c1fd6a22916005597ba720dba3cd22ebbdda6f68",
    "full lemma seed=0 part=0":
        "1d0245ed6da7af0617c60208ddf296755a0739ab8d8c99d1f380214e76e3dbde",
    "full lemma seed=0 part=1":
        "cdd06264308d544dc968fe56239ffc71938073219bcb456906b144ffc6430604",
    "full lemma seed=0 part=2":
        "547e4e58838c6bb250bff42a8457733a02692b3a17cf42e0b33cb8e7cb445ea7",
    "full lemma seed=0 part=3":
        "5c7d151ed35dc0a1909b8193e4528046c8a27571863b8ab818eff1978198cac3",
    "full lemma seed=0 part=4":
        "603b6274520b778821a7f4a4c1e7cdd49b62e8a86089799ee0cb7270cd1c7625",
    "full lemma seed=0 part=5":
        "e144e4409c4ae2ace5a53851248cff69a45ec588f38014e8b9b92d7b28ca7fdd",
    "full lemma seed=0 part=6":
        "bd638594702ca9cecd297a3c5451bab85cb6328bdd8b41daadf8e35f67de78b8",
    "full lemma seed=0 part=7":
        "50d32684a8de58235f5e226d51af9288c9c9ff587594f0bf83470a9bef776cdb",
    "full lemma seed=0 part=8":
        "c687475ea1cecfe356fe3efefd84a4faa683763c3e5358f82c01bead36180151",
    "full lemma seed=0 part=9":
        "9fde15a632ec74324a06133814c2863ecd280c2aea8274558c879ccab297a5bf",
    "full lemma seed=0 part=10":
        "3d01f8f95e060a68d4b507437d9c6d726f1a33a05ca8b1e9698704806c11f3a9",
    "full lemma seed=0 part=11":
        "5d6963ad2784d72d54f1400b8ce584b46829c50d37ce64833714e78a78708ef0",
    "full compute seed=0 part=0":
        "74b9b9d01729e473fe5af44f864e3cf255eec542d1590efcc9ef9a30693bdf2b",
    "full compute seed=0 part=1":
        "9895e30519ce242f949238968a8ba9b0d9ba5df878e7d88d5c62dfd359700ca1",
    "full compute seed=0 part=2":
        "f336246da62935038785adc2d1dcac06d2dca08cf303fccdfecb547c486ee54e",
    "full compute seed=0 part=3":
        "473d733a6f1a3102e1bd106c08691cb06eb68cca7c1aeab2ac02629edd5fdbf2",
    "full compute seed=0 part=4":
        "168133c1eaa11eb5b1c85909fb2760c933ae2a8523d222a540467ef7d418919d",
    "full compute seed=0 part=5":
        "29a229edb89d372ab5877b2d50770a54e538758d0a623c7cb458ef9806c78355",
    "full compute seed=0 part=6":
        "bcce4412661398680a02bf794bd4d1bd46522923161514abba70f0a338fcf5b4",
    "full compute seed=0 part=7":
        "1be382ab933a8c0b97122790f551636225c4e2b6841eea94e50693458d873348",
    "full compute seed=0 part=8":
        "c7a88445e1203801040d9dfa91586878e6b3935a99f0471cb824942357ce275a",
    "full compute seed=0 part=9":
        "eba584a5eed04c3f5aa8a26b217616f1ef8c738725a2a0a9ad80cf81a9fb3b49",
    "full compute seed=0 part=10":
        "439050293af01ca1952026e916ddc168cb35e644170573e2946aec80e0c3ac41",
    "full compute seed=0 part=11":
        "e4a815e6483647ff5e5e077dc7aa38978638403c7992e07a81d4bd0551e249c1",
    "full compute seed=0 part=12":
        "b88cde9262dc67e7315cd4b5d9bd20e7bb70f6fe38c9e4a39d9e4980ae8342bc",
    "full compute seed=0 part=13":
        "e2a9268de2a3e87893b32ddd4bff717072c61a0d165a0317262e9fd35ae66ef0",
    "full compute seed=0 part=14":
        "7d17f740e9e105be72651060bfe49781cacd959750c93102760aa39ea3addc14",
    "full compute seed=0 part=15":
        "3bbccd055867ccbaa4861e4a93fe0e78e0c16753e80e2911b56c52a2086044d6",
    "tiny verify theorem-2 --n 4..5":
        "06a090dd68b8d04bcc40cd2652b108d585de8506b53a1b0eddd013991aec8129",
    "tiny verify theorem-4 --n 4..5":
        "803bf8282e9d0cbca9f6f275419cb9b1a0a8251c90a1eff74b1b016b7513ca2f",
    "tiny verify theorem-5 --n 4..5":
        "c91b05caa4dfdf9e0941ffa90404412ac2d9cda89d491fa96a37e4e1738e7fc0",
    "tiny verify theorem-3 --n 4..5":
        "f4111e36c60bfd56e1e7e4a40549817401e183de38167fb5ebff87b741f64edd",
    "tiny verify theorem-1 --n 4..5":
        "064089be576b38685d429a497736fb228ed7c5bdaa9f447f0c78ebe54c9a846f",
    "tiny enumerate --n 5 --cyclomatic 3 --index em2":
        "2e9e844188b5effe8651d6ad82831cbdcab8176f8f1413c6140615c387102029",
    "tiny lemma seed=0 part=0":
        "db741a1905a90055c5d1c6032f644f1f6c1bcc83114467a7e82af437e071993f",
    "tiny lemma seed=0 part=1":
        "2b3d4c65b909dc632e113a3b8a73485869c129eba05f7f0b010eb921ecd54487",
    "tiny compute seed=0 part=0":
        "ab2eb8fd5e6fca374df3984a59b07e55abb7c9cfa35d06a1cd5626347f32ec95",
    "tiny compute seed=0 part=1":
        "6cb9873beede9426d8b423c57eaa73a97039fdc2f98b43a76e008128854cbbf6",
}


@dataclass(frozen=True)
class Unit:
    name: str
    call: Callable[[], object]
    # output -> (graphs covered, problems found)
    check: Callable[[object], tuple[int, list[str]]]


def _digest(doc) -> str:
    if not isinstance(doc, str):
        doc = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


def _pin_problems(pins: dict, key: str, digest: str, required: bool) -> list[str]:
    pinned = pins.get(key)
    if pinned is None and not required:
        return []
    if pinned != digest:
        return [f"{key}: digest {digest} does not match pin {pinned}"]
    return []


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.cli_main(argv)
    return rc, buf.getvalue()


def _scan_units(size_name: str, size: Size, seed: int, pins: dict) -> list[Unit]:
    argvs = [["verify", f"theorem-{k}", "--n", size.scan_n] for k in range(1, 6)]
    argvs.append(
        ["enumerate", "--n", str(size.scan_enum_n), "--cyclomatic", "3", "--index", "em2"]
    )
    random.Random(seed).shuffle(argvs)

    def unit(argv):
        key = f"{size_name} {' '.join(argv)}"

        def check(out):
            rc, text = out
            if rc != 0:
                return 0, [f"{key}: exit code {rc}"]
            doc = json.loads(text)
            doc.pop("wall_time_s")
            graphs = doc["visited"] if "visited" in doc else sum(
                row["visited"] for row in doc["rows"]
            )
            return graphs, _pin_problems(pins, key, _digest(doc), required=True)

        return Unit(" ".join(argv), lambda: _cli(argv), check)

    return [unit(argv) for argv in argvs]


def _lemma_units(size_name: str, size: Size, seed: int, pins: dict) -> list[Unit]:
    trials, enum_max = size.lemma_trials, size.lemma_enum_max

    def unit(part, part_seed):
        key = f"{size_name} lemma seed={seed} part={part}"

        def call():
            return verify.lemma_sweep(trials=trials, seed=part_seed, enum_max=enum_max)

        def check(reports):
            problems = [f"{key}: {c} verdict failed" for c, r in reports.items() if not r.passed]
            corpus = reports["lemma-1"].rows[1]["corpus_size"]
            want = LEMMA_ENUMERATED[enum_max] + trials
            if corpus != want:
                problems.append(f"{key}: corpus_size {corpus}, expected {want}")
            doc = {c: r.to_dict() for c, r in reports.items()}
            for d in doc.values():
                d.pop("wall_time_s")
            problems += _pin_problems(pins, key, _digest(doc), required=False)
            return corpus, problems

        return Unit(f"lemma_sweep(trials={trials}, seed={part_seed}, enum_max={enum_max})",
                    call, check)

    rng = random.Random(seed)
    return [unit(part, rng.randrange(2**32)) for part in range(size.lemma_parts)]


def _dense_graph(rng: random.Random):
    # a random spanning tree plus each remaining pair with probability 1/2
    base = verify.random_connected_graph(rng, 6, 16)
    have = set(base.edges)
    edges = list(have) + [
        (u, v)
        for v in range(1, base.n)
        for u in range(v)
        if (u, v) not in have and rng.random() < 0.5
    ]
    return make_graph(base.n, edges)


def compute_corpus(size: Size, seed: int) -> list[str]:
    """graph6 lines: three sparse graphs (n up to n_max) to one dense one."""
    rng = random.Random(seed)
    lines = []
    for i in range(size.compute_lines):
        if i % 4 == 3:
            g = _dense_graph(rng)
        else:
            g = verify.random_connected_graph(rng, 4, size.compute_n_max)
        lines.append(graph6_encode(g))
    return lines


def _compute_units(size_name, size, seed, pins, out_dir: Path) -> list[Unit]:
    corpus = compute_corpus(size, seed)
    rng = random.Random(seed)
    em1_col = INDEX_IDS.index("em1")
    step = -(-len(corpus) // size.compute_parts)

    def unit(part, lines):
        path = out_dir / f"compute-{size_name}-{part}.g6"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        key = f"{size_name} compute seed={seed} part={part}"
        sample = rng.sample(range(len(lines)), min(8, len(lines)))

        def check(out):
            rc, text = out
            if rc != 0:
                return 0, [f"{key}: exit code {rc}"]
            rows = [r.split(",") for r in text.splitlines()]
            if rows[0] != ["graph6", "index", "value"] or len(rows) != 1 + 4 * len(lines):
                return 0, [f"{key}: {len(rows)} CSV rows for {len(lines)} graphs"]
            problems = []
            for i, line in enumerate(lines):
                block = rows[1 + 4 * i: 5 + 4 * i]
                if [r[0] for r in block] != [line] * 4 or [r[1] for r in block] != list(INDEX_IDS):
                    problems.append(f"{key}: rows for line {i + 1} are out of order")
                    break
            for i in sample:
                # em1(G) = m1(L(G)): an oracle independent of the em1 code
                g = graph6_decode(lines[i])
                got = int(rows[1 + 4 * i + em1_col][2])
                if got != m1(line_graph(g)):
                    problems.append(f"{key}: em1 of line {i + 1} is {got}, m1(L(G)) disagrees")
            problems += _pin_problems(pins, key, _digest(text), required=False)
            return len(lines), problems

        argv = ["compute", str(path), "--index", "all"]
        return Unit(f"compute part {part}, {len(lines)} lines", lambda: _cli(argv), check)

    return [unit(part, corpus[i: i + step])
            for part, i in enumerate(range(0, len(corpus), step))]


def build(workload: str, size_name: str, seed: int, out_dir: Path, pins=PINS) -> list[Unit]:
    size = SIZES[size_name]
    if workload == "scan":
        return _scan_units(size_name, size, seed, pins)
    if workload == "lemma":
        return _lemma_units(size_name, size, seed, pins)
    if workload == "compute":
        return _compute_units(size_name, size, seed, pins, out_dir)
    raise ValueError(f"unknown workload {workload!r}, choose from {WORKLOADS}")


@dataclass
class Measurement:
    samples: dict[str, list[float]] = field(default_factory=dict)
    graphs: dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, unit: Unit, seconds: float, output) -> None:
        self.samples.setdefault(unit.name, []).append(seconds)
        self.check(unit, output)

    def check(self, unit: Unit, output) -> None:
        graphs, problems = unit.check(output)
        self.graphs[unit.name] = graphs
        self.tally(1, problems)

    def tally(self, attempted: int, problems: list[str]) -> None:
        """Count operations checked; each problem fails one of them."""
        self.attempted += attempted
        self.failed += min(attempted, len(problems))
        self.problems += problems

    @property
    def wall_s(self) -> float:
        """One pass: the sum of the units' fastest times."""
        return sum(min(s) for s in self.samples.values())

    @property
    def pass_graphs(self) -> int:
        return sum(self.graphs.values())


def timed(unit: Unit) -> tuple[float, object]:
    # start every unit from a collected heap, so garbage one unit leaves
    # behind is not charged to the next
    gc.collect()
    t0 = time.perf_counter()
    out = unit.call()
    return time.perf_counter() - t0, out


def measure(units: list[Unit], seconds: float, between=lambda: None) -> Measurement:
    """Round robin over the units until `seconds` have passed and each ran.

    between() runs after every unit, outside its timing.
    """
    m = Measurement()
    deadline = time.perf_counter() + seconds
    while True:
        for unit in units:
            m.record(unit, *timed(unit))
            between()
            if time.perf_counter() >= deadline and len(m.samples) == len(units):
                return m
