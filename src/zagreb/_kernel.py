"""Enumeration kernel entry point.

enumeration.enumerate_connected, the package's one caller of the
kernel, reaches it through this module, never through _corepy
directly.  scan_extremal, the labeled min/max walk, is re-exported for
the test suite and for perfbench/tracer.py, which wraps it.

BACKEND names the kernel; "py" is the only one.  ZAGREB_KERNEL may be
unset, empty or "py"; any other value is an import error, so a request
for a kernel that does not exist fails loudly.
"""

from __future__ import annotations

import os

from ._corepy import scan_extremal, visit_connected

__all__ = ["BACKEND", "scan_extremal", "visit_connected"]

BACKEND = "py"

_forced = os.environ.get("ZAGREB_KERNEL", "").strip().lower()
if _forced not in ("", "py"):
    raise ImportError(f"ZAGREB_KERNEL must be 'py' or unset, got {_forced!r}")
