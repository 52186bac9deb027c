"""Zagreb indices on small simple graphs.

Exact m1/m2/em1/em2 computation, the four extremal rewrites, named
extremal families, exhaustive connected-graph enumeration, and the
theorem/lemma verification harness behind the `zagreb` CLI.
"""

import os

from .canon import CANON_LIMIT, canonical_form
from .enumeration import (
    EnumSpec,
    ExtremalReport,
    brace_census,
    connected_classes,
    extremal_scan,
)
from .families import (
    CONSTRUCTORS,
    FAMILY_SYMBOLS,
    ReferenceValue,
    cycle_graph,
    expected_em1,
    path_graph,
    reference,
    s_n_k4,
    s_n_m,
    star_graph,
)
from .graph import (
    Graph,
    GraphError,
    brace,
    cyclomatic_number,
    degree,
    edge_degree,
    fuse,
    is_connected,
    line_graph,
    make_graph,
    pendant_vertices,
    read_edge_list,
    write_edge_list,
)
from .graph6 import Graph6Error, graph6_decode, graph6_encode
from .indices import INDEX_IDS, compute_index, em1, em2, m1, m2
from .rewrite import (
    KINDS,
    RewriteError,
    RewriteResult,
    RewriteSpec,
    apply_rewrite,
    find_applicable,
    operation_i,
    operation_ii,
    operation_iii,
    operation_iv,
)
from .verify import (
    LEMMA_CLAIMS,
    THEOREM_CLAIMS,
    VerdictReport,
    lemma_sweep,
    random_connected_graph,
    verify_lemma,
    verify_theorem,
)

__version__ = "0.1.0"

# the class path is pure Python, so "py" is the only backend; ZAGREB_KERNEL
# may be unset, empty or "py", and any other value fails the import loudly
BACKEND = "py"

_forced = os.environ.get("ZAGREB_KERNEL", "").strip().lower()
if _forced not in ("", "py"):
    raise ImportError(f"ZAGREB_KERNEL must be 'py' or unset, got {_forced!r}")

__all__ = [
    "BACKEND",
    "CANON_LIMIT",
    "CONSTRUCTORS",
    "EnumSpec",
    "ExtremalReport",
    "FAMILY_SYMBOLS",
    "Graph",
    "Graph6Error",
    "GraphError",
    "INDEX_IDS",
    "KINDS",
    "LEMMA_CLAIMS",
    "ReferenceValue",
    "RewriteError",
    "RewriteResult",
    "RewriteSpec",
    "THEOREM_CLAIMS",
    "VerdictReport",
    "apply_rewrite",
    "brace",
    "brace_census",
    "canonical_form",
    "compute_index",
    "connected_classes",
    "cycle_graph",
    "cyclomatic_number",
    "degree",
    "edge_degree",
    "em1",
    "em2",
    "expected_em1",
    "extremal_scan",
    "find_applicable",
    "fuse",
    "graph6_decode",
    "graph6_encode",
    "is_connected",
    "lemma_sweep",
    "line_graph",
    "m1",
    "m2",
    "make_graph",
    "operation_i",
    "operation_ii",
    "operation_iii",
    "operation_iv",
    "path_graph",
    "pendant_vertices",
    "random_connected_graph",
    "read_edge_list",
    "reference",
    "s_n_k4",
    "s_n_m",
    "star_graph",
    "verify_lemma",
    "verify_theorem",
    "write_edge_list",
]
