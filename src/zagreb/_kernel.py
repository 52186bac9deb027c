"""The labeled enumeration walk, kept for its callers outside the package.

Nothing in the package imports this module: every scan and sweep walks
isomorphism classes.  The labeled walk stays as the oracle the test suite
checks class generation against, and perfbench/tracer.py and
perfbench/run.py import it by name, so it keeps this module and
_corepy.py.  scan_extremal, the labeled min/max walk, and
visit_connected are re-exported from _corepy.
"""

from __future__ import annotations

from ._corepy import scan_extremal, visit_connected

__all__ = ["scan_extremal", "visit_connected"]
