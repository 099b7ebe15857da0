"""Spans around zdgspec's public functions, recorded from outside.

The worker wraps each function in TARGETS and rebinds the wrapper under
every module-level name that holds the original, in zdgspec and its
submodules. Modules import functions by name (`from .eigen import
coalesce`), so patching only the defining module would miss those calls.
Nothing under src/ changes.

A span is [name, parent index, command index, start, end, attribute]; the
spans of a worker stay in one list in memory and go back to the parent
when the worker ends. A span's self time is its duration minus that of its
direct children; the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

COMMAND = "cli.command"
EIG_QUOTIENT = "eigen.quotient_eig"
EIG_ORACLE = "eigen.oracle_eig"
BRUTE = "join_spectrum.brute"


def _length(args, kwargs, result):
    return len(args[0])


def _vertices(args, kwargs, result):
    return result.order


# (module, function, span name, attribute recorded on the span)
TARGETS = [
    ("zdgspec.numtheory", "factorize", "numtheory.factorize", None),
    ("zdgspec.divisor_graph", "build_divisor_graph", "divisor_graph.build", None),
    ("zdgspec.divisor_graph", "symmetric_form", "divisor_graph.matrices", None),
    ("zdgspec.divisor_graph", "weighted_laplacian", "divisor_graph.matrices", None),
    ("zdgspec.eigen", "symmetric_eigenvalues", None, _length),  # named by caller
    ("zdgspec.eigen", "coalesce", "eigen.coalesce", _length),
    ("zdgspec.eigen", "char_poly_integer", "eigen.char_poly", None),
    ("zdgspec.eigen", "integer_roots_complete", "eigen.int_roots", None),
    ("zdgspec.join_spectrum", "reduced_spectrum", "join_spectrum.reduced", None),
    ("zdgspec.join_spectrum", "exact_total_spectrum", "join_spectrum.exact_total", None),
    ("zdgspec.join_spectrum", "brute_spectrum", BRUTE, None),
    ("zdgspec.zdg_explicit", "build_zero_divisor_graph", "zdg_explicit.build", _vertices),
    ("zdgspec.analysis", "is_laplacian_integral", "analysis.integrality", None),
    ("zdgspec.analysis", "analyze_assembly", "analysis.analyze", None),
    ("zdgspec.cli", "record_json", "cli.serialize", None),
    ("zdgspec.cli", "record_csv", "cli.serialize", None),
    ("zdgspec.cli", "emit_record", "cli.serialize", None),
]

# spans that must record calls on each workload, else the traced run fails
_ANALYZE_PATH = [
    "numtheory.factorize",
    "divisor_graph.build",
    "divisor_graph.matrices",
    EIG_QUOTIENT,
    "eigen.coalesce",
    "eigen.char_poly",
    "eigen.int_roots",
    "join_spectrum.reduced",
    "join_spectrum.exact_total",
    "analysis.integrality",
    "analysis.analyze",
    "cli.serialize",
]
REQUIRED = {
    "sweep": _ANALYZE_PATH,
    "dense-quotient": _ANALYZE_PATH,
    "bulk-classes": _ANALYZE_PATH,
    "oracle-verify": [
        "numtheory.factorize",
        "divisor_graph.build",
        "divisor_graph.matrices",
        EIG_QUOTIENT,
        EIG_ORACLE,
        "eigen.coalesce",
        "join_spectrum.reduced",
        BRUTE,
        "zdg_explicit.build",
    ],
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.command = -1

    def _eig_name(self) -> str:
        under_brute = any(self.spans[i][0] == BRUTE for i in self.stack)
        return EIG_ORACLE if under_brute else EIG_QUOTIENT

    def span(self, fn, name, attr=None):
        """fn wrapped so that each call records one span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [
                name or self._eig_name(),
                self.stack[-1] if self.stack else -1,
                self.command,
                0.0,
                0.0,
                None,
            ]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            rec[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                self.stack.pop()
            if attr is not None:
                rec[5] = attr(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target under every module-level name bound to it."""
        modules = [
            m for name, m in list(sys.modules.items())
            if name == "zdgspec" or name.startswith("zdgspec.")
        ]
        for module, func, name, attr in TARGETS:
            original = getattr(sys.modules[module], func)
            wrapper = self.span(original, name, attr)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, self seconds, inclusive seconds, attribute sum
    and maximum."""
    child = [0.0] * len(spans)
    for _name, parent, _cmd, start, end, _attr in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self": 0.0, "incl": 0.0, "attr_sum": 0, "attr_max": 0}
    )
    for i, (name, _parent, _cmd, start, end, attr) in enumerate(spans):
        t = out[name]
        t["calls"] += 1
        t["incl"] += end - start
        t["self"] += end - start - child[i]
        if attr is not None:
            t["attr_sum"] += attr
            t["attr_max"] = max(t["attr_max"], attr)
    return out


# per-layer metrics read off layer_totals: (metric, unit, span, field);
# times are reported in ms
SPAN_METRICS = [
    ("numtheory.factorize.calls", "count", "numtheory.factorize", "calls"),
    ("numtheory.factorize.self_ms", "ms", "numtheory.factorize", "self"),
    ("divisor_graph.build.calls", "count", "divisor_graph.build", "calls"),
    ("divisor_graph.build.self_ms", "ms", "divisor_graph.build", "self"),
    ("divisor_graph.matrices.self_ms", "ms", "divisor_graph.matrices", "self"),
    ("eigen.quotient_eig.self_ms", "ms", EIG_QUOTIENT, "self"),
    ("eigen.quotient_eig.max_order", "count", EIG_QUOTIENT, "attr_max"),
    ("eigen.oracle_eig.self_ms", "ms", EIG_ORACLE, "self"),
    ("eigen.coalesce.self_ms", "ms", "eigen.coalesce", "self"),
    ("eigen.coalesce.values_in", "count", "eigen.coalesce", "attr_sum"),
    ("eigen.char_poly.self_ms", "ms", "eigen.char_poly", "self"),
    ("analysis.integrality.total_ms", "ms", "analysis.integrality", "incl"),
    ("eigen.int_roots.self_ms", "ms", "eigen.int_roots", "self"),
    ("join_spectrum.reduced.self_ms", "ms", "join_spectrum.reduced", "self"),
    ("join_spectrum.exact_total.self_ms", "ms", "join_spectrum.exact_total", "self"),
    ("join_spectrum.brute.self_ms", "ms", BRUTE, "self"),
    ("zdg_explicit.build.self_ms", "ms", "zdg_explicit.build", "self"),
    ("zdg_explicit.build.vertices", "count", "zdg_explicit.build", "attr_sum"),
    ("analysis.analyze.self_ms", "ms", "analysis.analyze", "self"),
    ("cli.serialize.self_ms", "ms", "cli.serialize", "self"),
]


def span_metrics(spans: list[list]) -> dict[str, float]:
    tot = layer_totals(spans)
    out = {}
    for metric, unit, span, field in SPAN_METRICS:
        value = tot[span][field] if span in tot else 0
        out[metric] = value * 1e3 if unit == "ms" else value
    return out
