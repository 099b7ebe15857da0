import importlib.util
from pathlib import Path

import zdgspec
from zdgspec.zdg_explicit import DEFAULT_ORACLE_CAP

ZDGBENCH = Path(__file__).resolve().parent.parent / "zdgbench"


def _load(name: str):
    """A zdgbench module, loaded read-only from its file."""
    spec = importlib.util.spec_from_file_location(name, ZDGBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_public_api_is_the_documented_one():
    assert zdgspec.__all__ == [
        "AnalysisReport",
        "EmptyGraphError",
        "OracleCapError",
        "SpectrumAssembly",
        "SpectrumMultiset",
        "analyze",
        "brute_spectrum",
        "exact_total_spectrum",
        "prime_power_spectrum",
        "reduced_spectrum",
    ]
    assert all(hasattr(zdgspec, name) for name in zdgspec.__all__)


def test_traced_functions_exist():
    # the traced benchmark wraps each (module, function) of its TARGETS by
    # getattr, so a renamed or deleted one breaks every traced run
    for module, func, _, _ in _load("bench_trace").TARGETS:
        assert callable(getattr(importlib.import_module(module), func)), (module, func)


def test_benchmark_oracle_cap_is_the_library_default(monkeypatch):
    # the benchmark sizes its oracle-verify windows against its own copy of
    # the default cap, which must not drift from the library's
    monkeypatch.syspath_prepend(str(ZDGBENCH))  # for its bench_arith import
    assert _load("bench_workloads").ORACLE_CAP == DEFAULT_ORACLE_CAP
