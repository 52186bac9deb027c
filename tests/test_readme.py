"""The README's examples run as written.

Every ```python block of README.md runs in order.  Each
`print(...)  # text` line must print exactly `text`.  Every `zagreb ...`
line of its ```sh blocks runs through cli_main in a scratch directory
and exits 0.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path
from unittest import mock

from zagreb.cli import cli_main

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```", re.S | re.M)
SH_BLOCK = re.compile(r"^```sh\n(.*?)^```", re.S | re.M)
PRINT = re.compile(r"^print\(.*?\)\s*(?:#\s*(.*))?$")


def test_readme_python_blocks():
    blocks = BLOCK.findall(README.read_text(encoding="utf-8"))
    assert blocks, "README.md has no python blocks"
    printed = []
    for block in blocks:
        expected = [m.group(1) for m in map(PRINT.match, block.splitlines()) if m]
        assert None not in expected, "every print in README.md needs an # expected comment"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {})
        assert out.getvalue().splitlines() == expected
        printed += expected
    assert printed == ["18 19", "10 18", "6165 100 188", "('E?^w', 'E@Nw')"]


def _skipped(words) -> bool:
    # installing, the test suite and the benchmark are not zagreb commands
    return words[0] == "pip" or "pytest" in words or any(
        w.startswith("perfbench/") for w in words
    )


def test_readme_shell_examples(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "graphs.g6").write_text("C~\nDhC\nE?^w\n", encoding="utf-8")
    ran = []
    for block in SH_BLOCK.findall(README.read_text(encoding="utf-8")):
        for line in block.splitlines():
            words = shlex.split(line, comments=True)
            if not words or _skipped(words):
                continue
            stdin = b""
            if "|" in words:
                # echo TEXT | zagreb ...: TEXT and a newline on stdin
                bar = words.index("|")
                assert words[0] == "echo", line
                stdin = " ".join(words[1:bar]).encode() + b"\n"
                words = words[bar + 1:]
            assert words[0] == "zagreb", line
            out, err = io.StringIO(), io.StringIO()
            fake_stdin = type("S", (), {"buffer": io.BytesIO(stdin)})()
            with (
                mock.patch("sys.stdin", fake_stdin),
                contextlib.redirect_stdout(out),
                contextlib.redirect_stderr(err),
            ):
                code = cli_main(words[1:])
            assert code == 0, (line, err.getvalue())
            ran.append(words[1])
    assert ran == [
        "compute", "compute", "transform", "transform", "families", "families",
        "enumerate", "enumerate", "enumerate", "verify", "verify", "brace-census",
    ]
