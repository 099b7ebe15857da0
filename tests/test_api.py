import importlib.util
from pathlib import Path

import zdgspec

BENCH_TRACE = Path(__file__).resolve().parent.parent / "zdgbench" / "bench_trace.py"


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
    spec = importlib.util.spec_from_file_location("bench_trace", BENCH_TRACE)
    bench_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_trace)
    for module, func, _, _ in bench_trace.TARGETS:
        assert callable(getattr(importlib.import_module(module), func)), (module, func)
