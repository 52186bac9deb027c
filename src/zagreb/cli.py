"""Command-line front end.

Subcommands: compute (index values for graph6 input), transform (apply
one rewrite), families (constructor output), enumerate (extremal scan
report), verify (theorem and lemma verdicts), brace-census.  Exit codes:
0 success, 1 verification failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import sys

from .enumeration import EnumSpec, brace_census, extremal_scan
from .families import CONSTRUCTORS, s_n_m
from .graph import GraphError
from .graph6 import Graph6Error, decode_mask, graph6_decode, graph6_encode, mask_edges
from .indices import INDEX_FUNCS, INDEX_IDS, degrees
from .rewrite import KINDS, RewriteSpec, apply_rewrite
from .verify import LEMMA_CLAIMS, THEOREM_CLAIMS, verify_lemma, verify_theorem


def _open_out(path):
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise GraphError(f"cannot write {path}: {exc}") from None


def _out_stream(path):
    if path in (None, "-"):
        return contextlib.nullcontext(sys.stdout)
    return _open_out(path)


def _parse_ns(text: str) -> range:
    # a range, so that an oversized A..B is never materialized
    t = text.strip()
    try:
        if ".." in t:
            lo, hi = (int(p) for p in t.split("..", 1))
        else:
            lo = hi = int(t)
    except ValueError:
        raise GraphError(f"bad order range {text!r}, use N or A..B") from None
    if hi < lo:
        raise GraphError(f"empty order range {text!r}")
    return range(lo, hi + 1)


def _parse_vertex_list(text: str | None, flag: str) -> tuple[int, ...] | None:
    # None is a flag not given; "" is given and empty, and fails below
    if text is None:
        return None
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise GraphError(f"{flag} wants comma-separated integers, got {text!r}") from None


def _edge_count_rule(text: str):
    # accepts a plain integer or the forms n, n+K, n-K
    t = text.strip().replace(" ", "")
    if t == "n":
        return lambda n: n
    if t[:2] in ("n+", "n-") and t[2:].isdigit():
        k = int(t[2:])
        return (lambda n: n + k) if t[1] == "+" else (lambda n: n - k)
    if t.lstrip("-").isdigit():
        fixed = int(t)
        return lambda n: fixed
    raise GraphError(f"cannot parse edge count {text!r}, use an integer or n+K")


def _cmd_compute(args) -> int:
    # bytes are decoded strictly here, whatever the locale or stdin's text
    # layer would do, so a decode error names the offset of the first bad byte;
    # lines end at "\n" only (str.splitlines would also cut at \v, \f, \x85,
    # a lone \r and more), and only spaces, tabs and the \r of a CRLF are
    # trimmed from their ends (str.strip would also drop \v, \f, \x1c..\x1f,
    # \x85, \u2028 ...), so every other byte reaches decode_mask and is rejected
    try:
        if args.input == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(args.input, "rb") as fh:
                data = fh.read()
        lines = data.decode("utf-8").split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        source = "stdin" if args.input == "-" else args.input
        raise GraphError(f"cannot read {source}: {exc}") from None
    wanted = INDEX_IDS if args.index == "all" else (args.index,)
    rows = []
    for i, line in enumerate(lines, start=1):
        text = line.strip(" \t\r")
        if not text:
            continue
        try:
            n, mask = decode_mask(text)
        except Graph6Error as exc:
            raise Graph6Error(f"line {i}: {exc}") from None
        # the formulas read a degree list and an edge list: no Graph is built
        edges = mask_edges(n, mask)
        deg = degrees(n, edges)
        for ident in wanted:
            rows.append((text, ident, INDEX_FUNCS[ident](deg, edges)))
    with _out_stream(args.out) as fh:
        if args.format == "json":
            doc = {
                "schema": 1,
                "rows": [
                    {"graph6": g6, "index": ident, "value": val}
                    for g6, ident, val in rows
                ],
            }
            fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        else:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["graph6", "index", "value"])
            writer.writerows(rows)
    return 0


def _cmd_transform(args) -> int:
    g = graph6_decode(args.graph6)
    spec = RewriteSpec(
        kind=args.op,
        u=args.u,
        v=args.v,
        path=_parse_vertex_list(args.path, "--path"),
        root=args.root,
        subtree=_parse_vertex_list(args.subtree, "--subtree"),
        reattach=args.reattach,
    )
    res = apply_rewrite(g, spec)
    doc = {
        "schema": 1,
        "op": args.op,
        "params": spec.params(),
        "input": args.graph6,
        "output": graph6_encode(res.graph),
        "em1_before": res.em1_before,
        "em1_after": res.em1_after,
        "delta": res.em1_after - res.em1_before,
        "relabel": {str(old): new for old, new in sorted(res.relabel.items())},
    }
    with _out_stream(args.out) as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return 0


def _cmd_families(args) -> int:
    ns = _parse_ns(args.n)
    if args.family == "snm":
        if args.m is None:
            raise GraphError("--family snm needs --m (an integer or n+K)")
        rule = _edge_count_rule(args.m)
        build = lambda n: s_n_m(n, rule(n))
    else:
        if args.m is not None:
            raise GraphError("--m only applies to --family snm")
        build = CONSTRUCTORS[args.family]
    with _out_stream(args.out) as fh:
        for n in ns:
            fh.write(graph6_encode(build(n)) + "\n")
    return 0


def _cmd_enumerate(args) -> int:
    spec = EnumSpec(
        n=args.n,
        c=args.cyclomatic,
        dedup=not args.no_dedup,
        allow_large=args.allow_large,
    )
    rep = extremal_scan(spec, args.index)
    # the summary table is opened first, so an unwritable --csv path
    # fails before any of the report is written
    table = _open_out(args.csv) if args.csv else contextlib.nullcontext()
    with table as tf, _out_stream(args.out) as fh:
        fh.write(rep.to_json() + "\n")
        if args.csv:
            # column -> value: the header row is its keys, the one data row its values
            row = {"n": rep.n, "c": rep.c, "m": rep.m, "index": rep.index,
                   "visited": rep.visited, "min": rep.min_value, "max": rep.max_value,
                   "min_classes": rep.min_classes, "max_classes": rep.max_classes,
                   "wall_time_s": rep.wall_time_s}
            csv.writer(tf, lineterminator="\n").writerows((row.keys(), row.values()))
    return 0


# verify option -> claim kind; None defaults leave the values to the library
_VERIFY_OPTIONS = {"n": "theorem", "allow_large": "theorem", "trials": "lemma", "seed": "lemma"}


def _cmd_verify(args) -> int:
    kind = "theorem" if args.claim in THEOREM_CLAIMS else "lemma"
    given = {d: getattr(args, d) for d in _VERIFY_OPTIONS if getattr(args, d) is not None}
    for dest in given:
        owner = _VERIFY_OPTIONS[dest]
        if owner != kind:
            flag = "--" + dest.replace("_", "-")
            raise GraphError(f"{flag} applies to {owner} claims only, not {args.claim}")
    if kind == "theorem":
        ns = _parse_ns(args.n) if args.n is not None else None
        rep = verify_theorem(args.claim, ns=ns, allow_large=bool(args.allow_large))
    else:
        rep = verify_lemma(args.claim, **given)
    with _out_stream(args.out) as fh:
        fh.write(rep.to_json() + "\n")
    return 0 if rep.passed else 1


def _cmd_brace_census(args) -> int:
    spec = EnumSpec(n=args.n, c=args.cyclomatic, allow_large=args.allow_large)
    with _out_stream(args.out) as fh:
        for form in brace_census(spec):
            fh.write(form + "\n")
    return 0


# built once per process: its handlers and choices are fixed at import, and
# the handlers look up what they call at call time
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zagreb",
        description="Zagreb index computation, extremal rewrites, exhaustive verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="index values for graph6 lines")
    p.add_argument("input", nargs="?", default="-", help="graph6 file, - for stdin")
    p.add_argument("--index", choices=INDEX_IDS + ("all",), default="em1")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="output path, - for stdout")
    p.set_defaults(handler=_cmd_compute)

    p = sub.add_parser("transform", help="apply one rewrite to a graph6 string")
    p.add_argument("graph6")
    p.add_argument("--op", choices=KINDS, required=True)
    p.add_argument("--u", type=int)
    p.add_argument("--v", type=int)
    p.add_argument("--path", help="comma-separated vertex path, e.g. 2,6,3")
    p.add_argument("--root", type=int)
    p.add_argument("--subtree", help="comma-separated vertex set, e.g. 3,4")
    p.add_argument("--reattach", type=int)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_transform)

    p = sub.add_parser("families", help="graph6 lines for a named construction")
    p.add_argument(
        "--family",
        choices=tuple(sorted(CONSTRUCTORS)) + ("snm",),
        required=True,
    )
    p.add_argument("--n", required=True, help="order N or range A..B")
    p.add_argument("--m", help="edge count for snm: an integer or n+K")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_families)

    p = sub.add_parser("enumerate", help="extremal scan over connected (n, c) graphs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cyclomatic", type=int, required=True)
    p.add_argument("--index", choices=INDEX_IDS, default="em1")
    p.add_argument("--allow-large", action="store_true")
    p.add_argument("--no-dedup", action="store_true",
                   help="report every labeled member of the extreme classes, "
                        "in enumeration order")
    p.add_argument("--out")
    p.add_argument("--csv", help="also write a one-row summary table here")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("verify", help="check one extremal theorem or rewrite lemma")
    p.add_argument("claim", choices=THEOREM_CLAIMS + LEMMA_CLAIMS)
    p.add_argument("--n", help="order N or range A..B (theorem claims)")
    p.add_argument("--trials", type=int, help="random corpus size (lemma claims)")
    p.add_argument("--seed", type=int, help="random corpus seed (lemma claims)")
    p.add_argument("--allow-large", action="store_true", default=None,
                   help="admit the n=9 tricyclic scan (theorem claims)")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("brace-census", help="pendant-free cores among connected (n, c) graphs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cyclomatic", type=int, required=True)
    p.add_argument("--allow-large", action="store_true")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_brace_census)

    return parser


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())
