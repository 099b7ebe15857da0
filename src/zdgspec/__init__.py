"""Laplacian spectra of zero-divisor graphs of Z_n.

The library computes the full Laplacian spectrum, algebraic connectivity,
spectral radius and vertex connectivity of the graph on the zero divisors
of Z_n, working on the weighted proper-divisor quotient instead of the
n - phi(n) - 1 explicit vertices. An explicit brute-force construction is
kept alongside as a verification oracle.
"""

from .analysis import AnalysisReport, analyze
from .eigen import SpectrumMultiset
from .errors import EmptyGraphError, OracleCapError
from .join_spectrum import (
    SpectrumAssembly,
    brute_spectrum,
    exact_total_spectrum,
    prime_power_spectrum,
    reduced_spectrum,
)

__all__ = [
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
