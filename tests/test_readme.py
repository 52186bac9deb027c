"""The README's Python examples run as written and print what they claim.

Every ```python block of README.md runs in order.  Each
`print(...)  # text` line must print exactly `text`.
"""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```", re.S | re.M)
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
