import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zagreb.cli as cli_mod
from zagreb import enumeration
from zagreb import (
    EnumSpec,
    VerdictReport,
    extremal_scan,
    graph6_encode,
    make_graph,
    s_n_m,
)
from zagreb.cli import cli_main

TWO_TRIANGLES_BRIDGED = make_graph(
    7, [(0, 1), (0, 2), (1, 2), (2, 6), (3, 4), (3, 5), (3, 6), (4, 5)]
)


def run(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_csv_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", type("S", (), {"buffer": io.BytesIO(b"C~\n")})())
    code, out, err = run(capsys, "compute", "-", "--index", "all")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "graph6,index,value",
        "C~,m1,36",
        "C~,m2,54",
        "C~,em1,96",
        "C~,em2,192",
    ]


def test_compute_from_file_json(tmp_path, capsys):
    src = tmp_path / "graphs.g6"
    src.write_text("C~\nCh\n\n")  # blank line skipped
    code, out, _ = run(capsys, "compute", str(src), "--index", "em1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["rows"] == [
        {"graph6": "C~", "index": "em1", "value": 96},
        {"graph6": "Ch", "index": "em1", "value": 6},
    ]


def test_compute_reports_bad_line_position(tmp_path, capsys):
    src = tmp_path / "graphs.g6"
    for text, line, byte, pos in (
        ("C~\nC!\n", 2, 33, 1),
        ("C~ \t\r\nC!\n", 2, 33, 1),  # spaces, tabs and \r are trimmed
        ("\vC~\n", 1, 11, 0),  # no other control byte is
        ("C~\f\nC!\n", 1, 12, 2),
        ("C~\x1c\n", 1, 28, 2),
        ("C~\x85\n", 1, 133, 2),
        ("C~\u2028\n", 1, 8232, 2),
    ):
        src.write_bytes(text.encode())
        code, out, err = run(capsys, "compute", str(src))
        assert code == 2 and out == ""
        assert err == (
            f"error: line {line}: byte {byte} outside graph6 range 63..126 (byte {pos})\n"
        ), text


@pytest.mark.parametrize("sep", ["\v", "\f", "\x85", "\r"])
def test_compute_splits_lines_at_newline_only(tmp_path, capsys, sep):
    src = tmp_path / "graphs.g6"
    src.write_bytes(f"C~{sep}Bw\n".encode())
    code, out, err = run(capsys, "compute", str(src))
    assert code == 2 and out == ""
    assert err == f"error: line 1: byte {ord(sep)} outside graph6 range 63..126 (byte 2)\n"


def test_compute_reads_crlf_like_lf(tmp_path, capsys):
    outs = []
    for eol in ("\n", "\r\n"):
        src = tmp_path / "graphs.g6"
        src.write_bytes(eol.join(["C~", "Ch", "", "Bw", ""]).encode())
        code, out, err = run(capsys, "compute", str(src), "--index", "all")
        assert code == 0 and err == ""
        outs.append(out)
    assert outs[0] == outs[1] and outs[0].count("\n") == 13


def _compute_stdin(data: bytes):
    # compute - --index all on data as stdin's bytes: (exit code, stdout, stderr)
    stdin = type("S", (), {"buffer": io.BytesIO(data)})()
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", stdin), redirect_stdout(out), redirect_stderr(err):
        code = cli_main(["compute", "-", "--index", "all"])
    return code, out.getvalue(), err.getvalue()


# arbitrary bytes, and bytes drawn mostly from graph6's own alphabet and
# the line-end and blank bytes, so that many inputs decode or get past
# the byte check into the size, length and padding checks
GRAPH6_ISH_BYTES = st.lists(
    st.sampled_from(b"?@ABCDEFGH_`ow~\n\r \t\x0b"), max_size=24
).map(bytes)


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.binary(max_size=32), GRAPH6_ISH_BYTES))
def test_compute_on_arbitrary_bytes_exits_0_or_2(data):
    code, out, err = _compute_stdin(data)
    assert code in (0, 2), (data, code)
    if code == 2:
        assert out == ""
        assert err.startswith(("error: line ", "error: cannot read stdin")), err
    else:
        lines = [t for t in data.decode().split("\n") if t.strip(" \t\r")]
        assert err == "" and len(out.splitlines()) == 1 + 4 * len(lines)


@pytest.mark.parametrize(
    "line, message",
    [
        ("~~~~~~~~", "graphs with n > 258047 are not supported (byte 1)"),
        ("~~??", "graphs with n > 258047 are not supported (byte 1)"),
        ("~?@", "truncated extended size prefix (byte 3)"),
        ("~", "truncated extended size prefix (byte 1)"),
        ("~}~~", "need 5548999681 adjacency bytes for n=258047, found 0 (byte 4)"),
    ],
)
def test_compute_rejects_oversized_input(line, message):
    assert _compute_stdin(f"C~\n{line}\n".encode()) == (2, "", f"error: line 2: {message}\n")


def test_compute_missing_file(capsys):
    code, _, err = run(capsys, "compute", "/no/such/file.g6")
    assert code == 2 and "cannot read" in err


def test_compute_rejects_non_utf8_file(tmp_path, capsys):
    src = tmp_path / "utf16.g6"
    src.write_bytes(b"C~\n\xff\xfeC~\n")
    code, out, err = run(capsys, "compute", str(src))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {src}: ")
    assert "byte 0xff in position 3" in err


def test_compute_rejects_non_utf8_stdin():
    # stdin decodes strictly under a UTF-8 locale; force that here
    env = dict(os.environ, PYTHONIOENCODING="utf-8:strict")
    out = subprocess.run(
        [sys.executable, "-c", "from zagreb.cli import main; main()", "compute", "-"],
        input=b"\xff\xfeC~\n",
        capture_output=True,
        env=env,
    )
    assert out.returncode == 2 and out.stdout == b""
    assert out.stderr.startswith(b"error: cannot read stdin: ")
    assert b"position 0" in out.stderr


def test_compute_stdin_decodes_strictly_under_the_c_locale():
    # with no locale set, Python's UTF-8 mode reads stdin with
    # surrogateescape, which turned the byte 0xff into a bogus graph6 byte
    env = {k: v for k, v in os.environ.items()
           if k not in ("LANG", "LC_ALL", "LC_CTYPE", "PYTHONIOENCODING", "PYTHONUTF8")}
    out = subprocess.run(
        [sys.executable, "-c", "from zagreb.cli import main; main()", "compute", "-"],
        input=b"\xff\xfeC~\n",
        capture_output=True,
        env=env,
    )
    assert out.returncode == 2 and out.stdout == b""
    assert out.stderr.startswith(b"error: cannot read stdin: ")
    assert b"byte 0xff in position 0" in out.stderr


def test_compute_writes_out_file(tmp_path, capsys):
    src = tmp_path / "in.g6"
    src.write_text("Ch\n")
    dst = tmp_path / "out.csv"
    code, out, _ = run(capsys, "compute", str(src), "--out", str(dst))
    assert code == 0 and out == ""
    assert dst.read_text() == "graph6,index,value\nCh,em1,6\n"


def test_transform_json(capsys):
    g6 = graph6_encode(TWO_TRIANGLES_BRIDGED)
    code, out, _ = run(capsys, "transform", g6, "--op", "II", "--path", "2,6,3")
    assert code == 0
    doc = json.loads(out)
    assert doc["em1_before"] == 62 and doc["em1_after"] == 202 and doc["delta"] == 140
    assert doc["params"] == {"kind": "II", "path": [2, 6, 3]}
    assert doc["relabel"]["2"] == doc["relabel"]["3"]


def test_transform_inapplicable_site_exits_2(capsys):
    code, _, err = run(capsys, "transform", "C~", "--op", "I", "--u", "0", "--v", "1")
    assert code == 2
    assert err.startswith("error: operation I:")


def test_transform_rejects_bad_path_text(capsys):
    code, _, err = run(capsys, "transform", "C~", "--op", "II", "--path", "2,x")
    assert code == 2 and "comma-separated integers" in err


def test_families_range(capsys):
    code, out, _ = run(capsys, "families", "--family", "snm", "--n", "5..7", "--m", "n+2")
    assert code == 0
    assert out.splitlines() == [graph6_encode(s_n_m(n, n + 2)) for n in (5, 6, 7)]


def test_families_flag_validation(capsys):
    code, _, err = run(capsys, "families", "--family", "snm", "--n", "6")
    assert code == 2 and "needs --m" in err
    code, _, err = run(capsys, "families", "--family", "path", "--n", "6", "--m", "7")
    assert code == 2 and "only applies" in err
    code, _, err = run(capsys, "families", "--family", "path", "--n", "8..4")
    assert code == 2 and "empty order range" in err
    code, _, err = run(capsys, "families", "--family", "snm", "--n", "6", "--m", "n*2")
    assert code == 2 and "cannot parse edge count" in err


def test_enumerate_json_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "summary.csv"
    code, out, _ = run(
        capsys, "enumerate", "--n", "5", "--cyclomatic", "3", "--csv", str(csv_path)
    )
    assert code == 0
    doc = json.loads(out)
    rep = extremal_scan(EnumSpec(n=5, c=3), "em1")
    assert doc["visited"] == rep.visited == 120
    assert doc["max"]["value"] == 132
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "n,c,m,index,visited,min,max,min_classes,max_classes,wall_time_s"
    assert lines[1].startswith("5,3,7,em1,120,98,132,1,2,")


def test_enumerate_unwritable_csv_exits_2(tmp_path, capsys):
    csv_path = tmp_path / "no" / "such" / "summary.csv"
    code, out, err = run(
        capsys, "enumerate", "--n", "5", "--cyclomatic", "3", "--csv", str(csv_path)
    )
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {csv_path}: ")


def test_enumerate_rejects_oversize(capsys):
    code, _, err = run(capsys, "enumerate", "--n", "9", "--cyclomatic", "3")
    assert code == 2 and "allow_large" in err


def test_verify_theorem_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "verdict.json"
    code, out, _ = run(
        capsys, "verify", "theorem-5", "--n", "4..5", "--out", str(out_path)
    )
    assert code == 0 and out == ""
    doc = json.loads(out_path.read_text())
    assert doc["claim"] == "theorem-5" and doc["passed"] is True
    assert [row["n"] for row in doc["rows"]] == [4, 5]


def test_verify_unwritable_out_exits_2(tmp_path, capsys):
    out_path = tmp_path / "no" / "such" / "verdict.json"
    code, out, err = run(
        capsys, "verify", "theorem-1", "--n", "4", "--out", str(out_path)
    )
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {out_path}: ")


def test_verify_failure_exits_1(capsys, monkeypatch):
    stub = VerdictReport(
        claim="lemma-1",
        passed=False,
        params={},
        rows=(),
        counterexamples=({"graph6": "C~"},),
        notes=(),
        wall_time_s=0.0,
    )
    monkeypatch.setattr(cli_mod, "verify_lemma", lambda *a, **k: stub)
    code, out, _ = run(capsys, "verify", "lemma-1", "--trials", "3")
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_verify_lemma_bad_options_exit_2(capsys):
    code, out, err = run(capsys, "verify", "lemma-1", "--n", "5")
    assert code == 2 and out == "" and "--n" in err
    code, out, err = run(capsys, "verify", "lemma-1", "--trials", "-5")
    assert code == 2 and out == "" and "trials" in err


@pytest.mark.parametrize("extra", [("--n", "4..8"), ("--allow-large",)])
def test_verify_lemma_rejects_theorem_options(capsys, extra):
    code, out, err = run(capsys, "verify", "lemma-2", "--trials", "0", *extra)
    assert code == 2 and out == ""
    assert f"{extra[0]} applies to theorem claims only" in err


def test_verify_theorem_accepts_explicit_options(capsys):
    code, out, _ = run(capsys, "verify", "theorem-1", "--n", "4", "--allow-large")
    assert code == 0 and json.loads(out)["passed"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--n", "5", "--cyclomatic", "1"),
        ("verify", "theorem-1", "--n", "4"),
        ("verify", "lemma-1", "--trials", "0"),
    ],
)
def test_workers_option_is_rejected(capsys, argv):
    # scans run in one process, so there is no worker count to set
    code, out, err = run(capsys, *argv, "--workers", "2")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --workers 2" in err


@pytest.mark.parametrize(
    "claim, orders, fragment",
    [
        ("theorem-2", "4..10", "capped at n=9, got n=10"),
        ("theorem-2", "12..15", "capped at n=9, got n=12"),
        ("theorem-1", "4..1000000000000000000", "capped at n=9, got n=10"),
        ("theorem-4", "4..9", "allow_large"),
    ],
)
def test_verify_theorem_rejects_orders_before_any_scan(
    capsys, monkeypatch, claim, orders, fragment
):
    def refuse(*args, **kwargs):
        raise AssertionError("a scan ran before every order was validated")

    monkeypatch.setattr(enumeration, "connected_classes", refuse)
    code, out, err = run(capsys, "verify", claim, "--n", orders)
    assert code == 2 and out == "" and fragment in err


def test_brace_census_cli(capsys):
    code, out, _ = run(capsys, "brace-census", "--n", "5", "--cyclomatic", "1")
    assert code == 0 and out == "DLo\n"


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "verify", "theorem-7")[0] == 2
    assert run(capsys, "transform", "C~", "--op", "IX")[0] == 2
    assert run(capsys, "enumerate", "--n", "5")[0] == 2  # missing --cyclomatic


def test_help_exits_0(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "compute", "--help")[0] == 0
