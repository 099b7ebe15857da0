"""Laplacian spectra of zero-divisor graphs of Z_n.

The library computes the full Laplacian spectrum, algebraic connectivity,
spectral radius and vertex connectivity of the graph on the zero divisors
of Z_n, working on the weighted proper-divisor quotient instead of the
n - phi(n) - 1 explicit vertices. An explicit brute-force construction is
kept alongside as a verification oracle.
"""

from .analysis import (
    AnalysisReport,
    algebraic_connectivity,
    analyze,
    analyze_assembly,
    complement_disconnected,
    is_laplacian_integral,
    lambda_equals_order,
    mu_equals_kappa,
    quotient_extremes_check,
    spectral_radius,
    vertex_connectivity,
)
from .divisor_graph import (
    WeightedDivisorGraph,
    build_divisor_graph,
    class_degrees_M,
    symmetric_form,
    weighted_laplacian,
)
from .eigen import (
    IntPolynomial,
    SpectrumEntry,
    SpectrumMultiset,
    char_poly_integer,
    coalesce,
    integer_roots_complete,
    symmetric_eigenvalues,
)
from .errors import EmptyGraphError, OracleCapError
from .join_spectrum import (
    ClassContribution,
    SpectrumAssembly,
    brute_spectrum,
    class_spectrum,
    exact_total_spectrum,
    prime_power_spectrum,
    reduced_spectrum,
)
from .numtheory import euler_phi, factorize, is_prime, proper_divisors
from .zdg_explicit import (
    ClassKind,
    ClassPartition,
    SimpleGraph,
    build_zero_divisor_graph,
    class_partition,
    degrees,
    expected_vertex_count,
    join_reconstruction,
    verify_equitable,
)

__all__ = [
    "AnalysisReport",
    "ClassContribution",
    "ClassKind",
    "ClassPartition",
    "EmptyGraphError",
    "IntPolynomial",
    "OracleCapError",
    "SimpleGraph",
    "SpectrumAssembly",
    "SpectrumEntry",
    "SpectrumMultiset",
    "WeightedDivisorGraph",
    "algebraic_connectivity",
    "analyze",
    "analyze_assembly",
    "brute_spectrum",
    "build_divisor_graph",
    "build_zero_divisor_graph",
    "char_poly_integer",
    "class_degrees_M",
    "class_partition",
    "class_spectrum",
    "coalesce",
    "complement_disconnected",
    "degrees",
    "euler_phi",
    "exact_total_spectrum",
    "expected_vertex_count",
    "factorize",
    "integer_roots_complete",
    "is_laplacian_integral",
    "is_prime",
    "join_reconstruction",
    "lambda_equals_order",
    "mu_equals_kappa",
    "prime_power_spectrum",
    "proper_divisors",
    "quotient_extremes_check",
    "reduced_spectrum",
    "spectral_radius",
    "symmetric_eigenvalues",
    "symmetric_form",
    "vertex_connectivity",
    "verify_equitable",
]
